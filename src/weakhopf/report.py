"""Verdict reports: named pass/fail entries with basis witnesses."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .fields import Field

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"


class DuplicateCheckId(ValueError):
    pass


@dataclass(frozen=True)
class Witness:
    row: int
    col: int
    lhs: object
    rhs: object

    def to_json(self, field: Field) -> dict:
        return {
            "row": self.row,
            "col": self.col,
            "lhs": None if self.lhs is None else field.format(self.lhs),
            "rhs": None if self.rhs is None else field.format(self.rhs),
        }


@dataclass(frozen=True)
class Verdict:
    check_id: str
    status: str
    witness: Optional[Witness] = None
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.status == PASS


class VerdictReport:
    """Ordered collection of uniquely named verdicts, kept by check id in
    the order they were added."""

    def __init__(self, title: str = ""):
        self.title = title
        self._verdicts: dict[str, Verdict] = {}

    def add(self, verdict: Verdict) -> Verdict:
        if verdict.check_id in self._verdicts:
            raise DuplicateCheckId(verdict.check_id)
        self._verdicts[verdict.check_id] = verdict
        return verdict

    def add_pass(self, check_id: str, note: str = "") -> Verdict:
        return self.add(Verdict(check_id, PASS, note=note))

    def add_fail(self, check_id: str, witness: Optional[Witness] = None, note: str = "") -> Verdict:
        return self.add(Verdict(check_id, FAIL, witness=witness, note=note))

    def add_skipped(self, check_id: str, note: str = "") -> Verdict:
        return self.add(Verdict(check_id, SKIPPED, note=note))

    def add_equality(self, check_id: str, lhs, rhs, note: str = "") -> Verdict:
        """Verdict for exact entrywise equality of two LinMaps."""
        diff = lhs.first_difference(rhs)
        if diff is None:
            return self.add_pass(check_id, note=note)
        r, c, a, b = diff
        return self.add_fail(check_id, witness=Witness(r, c, a, b), note=note)

    def add_bool(self, check_id: str, ok: bool, note: str = "") -> Verdict:
        return self.add_pass(check_id, note=note) if ok else self.add_fail(check_id, note=note)

    def extend(self, other: "VerdictReport", prefix: str = ""):
        """Add the other report's verdicts, renamed with ``prefix``.  Verdicts
        are immutable, so an unrenamed one is shared, not copied."""
        for v in other:
            self.add(Verdict(prefix + v.check_id, v.status, v.witness, v.note) if prefix else v)

    def __iter__(self):
        return iter(self._verdicts.values())

    def __reversed__(self):
        return reversed(self._verdicts.values())

    def __len__(self):
        return len(self._verdicts)

    def get(self, check_id: str) -> Verdict:
        return self._verdicts[check_id]

    @property
    def all_pass(self) -> bool:
        return all(v.status != FAIL for v in self)

    def failures(self) -> list[Verdict]:
        return [v for v in self if v.status == FAIL]

    def first_failure(self) -> Optional[Verdict]:
        fails = self.failures()
        return fails[0] if fails else None

    def to_json_entries(self, field: Field) -> list[dict]:
        out = []
        for v in self:
            item: dict = {"id": v.check_id, "status": v.status}
            if v.witness is not None:
                item["witness"] = v.witness.to_json(field)
            if v.note:
                item["note"] = v.note
            out.append(item)
        return out

    def summary(self) -> str:
        npass = sum(1 for v in self if v.status == PASS)
        nfail = sum(1 for v in self if v.status == FAIL)
        nskip = sum(1 for v in self if v.status == SKIPPED)
        head = f"{self.title}: " if self.title else ""
        return f"{head}{npass} pass, {nfail} fail, {nskip} skipped"
