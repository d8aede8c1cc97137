"""The three benchmark workloads: what each instance runs and how it is checked.

Each workload class is instantiated right after a fresh import of the
program and calls the program only through module attributes looked up at
call time, so a traced run sees the tracer's wrappers.  ``run`` is the
timed work of one instance and calls ``lap()`` between its stages, so
that each stage is timed on its own.  ``check`` runs afterwards, untimed,
and returns the failures it found.  Checks rest on mathematical facts (a
GF(5) matroid has no Fano minor, dim ker A = n - rank A) or on digests
of the output recorded when the benchmark was added, not on the
program's own verdicts.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

from generators import Instance

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "bundled_digests.json"


def _no_lap():
    pass


class Bundled:
    """Every CLI command, in process, on the shipped 13-point data."""

    def __init__(self, seed: int, workdir: Path):
        from matroid_forge import formats, minors

        data = formats.bundled_data_dir()
        workdir.mkdir(parents=True, exist_ok=True)
        fano = workdir / "fano.matroid"
        fano.write_text(formats.serialize_matroid(minors.fano_matroid()))
        m, n = str(data / "M.matroid"), str(data / "N.matroid")
        commands = {
            "validate-M": ["validate", m],
            "validate-N": ["validate", n],
            "flats-M": ["flats", m, "--rank", "2"],
            "erect-all": ["erect", m, "--all"],
            "erect-free": ["erect", m, "--free"],
            "formality-A": ["formality", str(data / "A.matrix")],
            "formality-yuzvinsky": ["formality",
                                    str(data / "yuzvinsky_a2.matrix")],
            "charpoly-M": ["charpoly", m],
            "minor-N-fano": ["minor", n, str(fano)],
            "obstruction-N": ["obstruction", n],
            "reproduce": ["reproduce"],
        }
        self.instances = [Instance(label, facts={"argv": argv})
                          for label, argv in commands.items()]
        random.Random(f"bundled:{seed}").shuffle(self.instances)
        self.digests = json.loads(DIGESTS.read_text())

    @staticmethod
    def run(instance, lap=_no_lap):
        from matroid_forge import cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(instance.facts["argv"]))
        return code, out.getvalue()

    def check(self, instance, output) -> list[str]:
        label = instance.label
        code, text = output
        failures = []
        if code != 0:
            failures.append(f"{label}: exit code {code}, expected 0")
        if hashlib.sha256(text.encode()).hexdigest() != self.digests[label]:
            failures.append(f"{label}: output differs from the recorded digest")
        if label == "reproduce" and "12/12 checks passed" not in text:
            failures.append("reproduce: not 12/12")
        return failures


def _formality(linalg, a):
    """The formality command's steps; G is kept for its column matroid."""
    g = linalg.formalization(a)
    return {"kernel": linalg.kernel_basis(a).dim,
            "weight3": linalg.weight3_subspace(a).dim,
            "rank": a.rank(), "formalization_rank": g.rank(),
            "formal": linalg.is_formal(a), "g": g}


def _formality_failures(label, facts, f) -> list[str]:
    failures = []
    if f["rank"] != facts["rank"]:
        failures.append(f"{label}: rank {f['rank']}, expected {facts['rank']}")
    if f["kernel"] != facts["n"] - f["rank"]:
        failures.append(f"{label}: kernel dimension {f['kernel']} != n - rank")
    if (f["formalization_rank"] > f["rank"]) == f["formal"]:
        failures.append(f"{label}: formalization rank disagrees with formality")
    return failures


def _quinary_minor_failures(label, host, report) -> list[str]:
    """A GF(5) matroid has no Fano minor; its non-Fano witness must replay."""
    from matroid_forge import minors

    failures = []
    if report.has_fano:
        failures.append(f"{label}: found a Fano minor")
    witness = report.nonfano_witness
    if witness is not None and not minors.replay_witness(
            host, minors.non_fano_matroid(), witness):
        failures.append(f"{label}: non-Fano witness does not replay")
    return failures


class Ladder:
    """PG(2,5) point sets on both sides of the 2^n rank-table limit."""

    def __init__(self, seed: int, workdir: Path):
        from generators import ladder
        self.instances = ladder(seed)

    @staticmethod
    def run(instance, lap=_no_lap):
        from matroid_forge import erection, formats, linalg, minors

        m = formats.parse_matroid_text(instance.texts["matroid"])
        lap()
        family = erection.enumerate_erections(m)
        lap()
        report = minors.realizability_obstruction(m)
        lap()
        a = formats.parse_matrix_text(instance.texts["matrix"])
        return m, family, report, _formality(linalg, a)

    @staticmethod
    def check(instance, output) -> list[str]:
        m, family, report, formality = output
        label, facts = instance.label, instance.facts
        failures = []
        if (m.n, m.rank, len(m.basis_masks)) != (facts["n"], 3, facts["bases"]):
            failures.append(f"{label}: parsed {m!r}, expected {facts}")
        if family.erections[0] != m:
            failures.append(f"{label}: trivial erection missing")
        failures += _quinary_minor_failures(label, m, report)
        failures += _formality_failures(label, facts, formality)
        return failures


class Arrangements:
    """Rational arrangements with planted dependencies: exact RREF work."""

    def __init__(self, seed: int, workdir: Path):
        from generators import arrangements
        self.instances = arrangements(seed)

    @staticmethod
    def run(instance, lap=_no_lap):
        from matroid_forge import formats, linalg, properties

        a = formats.parse_matrix_text(instance.texts["matrix"])
        formality = _formality(linalg, a)
        lap()
        ma = linalg.column_matroid(a)
        lap()
        mg = linalg.column_matroid(formality["g"])
        lap()
        failures = properties.formalization_quotient_failures(a)
        return formality, ma, mg, failures

    @staticmethod
    def check(instance, output) -> list[str]:
        formality, ma, mg, quotient_failures = output
        label, facts = instance.label, instance.facts
        failures = _formality_failures(label, facts, formality)
        if len(ma.basis_masks) != facts["bases"]:
            failures.append(f"{label}: column matroid has {len(ma.basis_masks)} "
                            f"bases, expected {facts['bases']}")
        if mg.rank != formality["formalization_rank"]:
            failures.append(f"{label}: G's column matroid has the wrong rank")
        failures += [f"{label}: {f}" for f in quotient_failures]
        return failures


WORKLOADS = {"bundled": Bundled, "ladder": Ladder,
             "arrangements": Arrangements}
