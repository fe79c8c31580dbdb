"""Self-describing JSON presentations of instances, and report files.

A presentation declares a field, object dimensions, generator matrices
(row-major, rows indexed by the codomain, scalars as strings) and role tags
naming which generators play which part.  Reports are JSON with a version,
the input digest, one entry per verdict and a timing field.
"""
from __future__ import annotations

import hashlib
import io
import json
from dataclasses import dataclass, field as dc_field
from typing import Optional

from .algebra import AlgebraData
from .bialgebra import WeakBialgebra, WeakHopfAlgebra
from .cleft import CleavingData, ComoduleAlgebra, Extension
from .crossed import CocycleData, WeakMeasure
from .fields import Field, FieldError, field_from_spec
from .linalg import LinMap, Obj
from .report import VerdictReport

TOOL_VERSION = "0.1.0"


class PresentationError(ValueError):
    pass


@dataclass
class PresentationFile:
    field: Field
    objects: dict  # name -> Obj
    generators: dict  # name -> LinMap
    roles: dict
    raw: dict
    _bialgebra: Optional[WeakBialgebra] = dc_field(default=None, repr=False, compare=False)

    def word(self, names) -> tuple:
        try:
            return tuple(self.objects[n] for n in names)
        except KeyError as exc:
            raise PresentationError(f"undeclared object {exc.args[0]!r}") from None

    def gen(self, name: str) -> LinMap:
        try:
            return self.generators[name]
        except KeyError:
            raise PresentationError(f"missing generator {name!r}") from None

    def role(self, tag: str) -> dict:
        try:
            return self.roles[tag]
        except KeyError:
            raise PresentationError(f"presentation has no {tag!r} role") from None

    def has_role(self, tag: str) -> bool:
        return tag in self.roles

    # -- typed views --------------------------------------------------------

    def bialgebra(self) -> WeakBialgebra:
        """H with its antipode when one is declared; built once per file, so
        every typed view shares it."""
        if self._bialgebra is None:
            self._bialgebra = self._build_bialgebra()
        return self._bialgebra

    def _build_bialgebra(self) -> WeakBialgebra:
        spec = self.role("bialgebra")
        obj = self.objects[spec["object"]]
        args = (
            self.field,
            obj,
            self.gen(spec.get("mu", "mu")),
            self.gen(spec.get("eta", "eta")),
            self.gen(spec.get("delta", "Delta")),
            self.gen(spec.get("eps", "eps")),
        )
        if self.has_role("antipode"):
            s = self.gen(self.role("antipode")["map"])
            return WeakHopfAlgebra.unchecked(*args, s)
        return WeakBialgebra.unchecked(*args)

    def algebra(self, spec: dict) -> AlgebraData:
        obj = self.objects[spec["object"]]
        return AlgebraData(self.field, obj, self.gen(spec["mu"]), self.gen(spec["eta"]))

    def measure(self, rho_name: Optional[str] = None) -> WeakMeasure:
        spec = self.role("measure")
        A = self.algebra(spec)
        rho = self.gen(rho_name or spec["rho"])
        return WeakMeasure(self.bialgebra(), A, rho)

    def cocycle(self, m: WeakMeasure, f_name: Optional[str] = None) -> CocycleData:
        name = f_name or self.role("cocycle")["map"]
        return CocycleData(m, self.gen(name))

    def comodule(self) -> ComoduleAlgebra:
        spec = self.role("comodule")
        B = self.algebra(spec)
        return ComoduleAlgebra(B, self.gen(spec["delta"]), self.bialgebra())

    def extension(self) -> Extension:
        spec = self.role("extension")
        A = self.algebra(spec)
        return Extension(self.comodule(), A, self.gen(spec["j"]))

    def cleaving(self) -> CleavingData:
        spec = self.role("cleaving")
        return CleavingData(self.gen(spec["gamma"]), self.gen(spec["gamma_inv"]))

    def phi(self, name: Optional[str] = None) -> LinMap:
        return self.gen(name or self.role("phi")["map"])


def parse_presentation(data: dict, field_override: Optional[str] = None) -> PresentationFile:
    try:
        field = field_from_spec(field_override or data["field"])
    except (KeyError, FieldError) as exc:
        raise PresentationError(f"bad field spec: {exc}") from None
    objects = {}
    for name, dim in data.get("objects", {}).items():
        if not isinstance(dim, int) or dim < 0:
            raise PresentationError(f"object {name!r} has bad dimension {dim!r}")
        objects[name] = Obj(name, dim)
    generators = {}
    for name, spec in data.get("generators", {}).items():
        if name in objects:
            raise PresentationError(f"generator {name!r} is named like a declared object")
        try:
            dom = tuple(objects[n] for n in spec["dom"])
            cod = tuple(objects[n] for n in spec["cod"])
            matrix = spec["matrix"]
        except KeyError as exc:
            raise PresentationError(f"generator {name!r} is missing {exc.args[0]!r}") from None
        nrows = 1
        for ob in cod:
            nrows *= ob.dim
        ncols = 1
        for ob in dom:
            ncols *= ob.dim
        if len(matrix) != nrows or any(len(r) != ncols for r in matrix):
            raise PresentationError(
                f"generator {name!r}: matrix shape does not match declared words"
            )
        try:
            rows = [[field.parse(str(v)) for v in r] for r in matrix]
        except FieldError as exc:
            raise PresentationError(f"generator {name!r}: {exc}") from None
        generators[name] = LinMap(field, dom, cod, rows)
    roles = data.get("roles", {})
    if not isinstance(roles, dict):
        raise PresentationError("roles must be an object")
    return PresentationFile(field, objects, generators, roles, data)


def read_presentation(path: str) -> bytes:
    """The bytes of a presentation file."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise PresentationError(f"cannot read presentation {path}: {exc}") from None


def decode_presentation(
    raw: bytes, path: str, field_override: Optional[str] = None
) -> PresentationFile:
    """Parse the bytes read from ``path`` as a text file would read them:
    UTF-8 with universal newlines."""
    try:
        data = json.loads(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8").read())
    except json.JSONDecodeError as exc:
        raise PresentationError(f"cannot read presentation {path}: {exc}") from None
    return parse_presentation(data, field_override)


def load_presentation(path: str, field_override: Optional[str] = None) -> PresentationFile:
    return decode_presentation(read_presentation(path), path, field_override)


# --------------------------------------------------------------------------
# Serialization
# --------------------------------------------------------------------------

def linmap_to_json(m: LinMap) -> dict:
    return {
        "dom": [ob.name for ob in m.dom],
        "cod": [ob.name for ob in m.cod],
        "matrix": [[m.field.format(v) for v in row] for row in m.rows],
    }


def presentation_to_json(field: Field, generators: dict, roles: Optional[dict] = None) -> dict:
    objects: dict = {}
    for m in generators.values():
        for ob in (*m.dom, *m.cod):
            if ob.name in objects and objects[ob.name] != ob.dim:
                raise PresentationError(f"inconsistent dims for object {ob.name!r}")
            objects[ob.name] = ob.dim
    out = {
        "field": field.spec(),
        "objects": dict(sorted(objects.items())),
        "generators": {name: linmap_to_json(m) for name, m in sorted(generators.items())},
    }
    if roles is not None:
        out["roles"] = roles
    return out


def dump_json(data: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=False)
        fh.write("\n")


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def report_to_json(
    report: VerdictReport, field: Field, input_sha256: str, millis: int = 0
) -> dict:
    return {
        "version": TOOL_VERSION,
        "input_sha256": input_sha256,
        "entries": report.to_json_entries(field),
        "millis": millis,
    }
