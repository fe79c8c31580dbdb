"""Self-describing JSON presentations of instances, and report files.

A presentation declares a field, object dimensions, generator matrices
(row-major, rows indexed by the codomain, scalars as strings) and role tags
naming which generators play which part.  Reports are JSON with a version,
the input digest, the field, one entry per verdict and a timing field.
"""
from __future__ import annotations

import io
import json
from dataclasses import dataclass
from typing import Optional

from .algebra import AlgebraData
from .bialgebra import WeakBialgebra
from .cleft import CleavingData, ComoduleAlgebra, Extension
from .crossed import CocycleData, WeakMeasure
from .fields import Field, FieldError, field_from_spec
from .linalg import LinMap, Obj, wdim
from .report import VerdictReport

TOOL_VERSION = "0.1.0"


class PresentationError(ValueError):
    pass


@dataclass
class PresentationFile:
    field: Field
    objects: dict  # name -> Obj
    generators: dict  # name -> LinMap
    roles: dict  # tag -> {key: name}

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

    def name(self, tag: str, key: str, default: Optional[str] = None) -> str:
        """The name the role ``tag`` gives under ``key``."""
        value = self.role(tag).get(key, default)
        if not isinstance(value, str):
            raise PresentationError(f"the {tag!r} role names no {key!r}")
        return value

    def obj(self, tag: str) -> Obj:
        """The declared object the role ``tag`` names."""
        name = self.name(tag, "object")
        try:
            return self.objects[name]
        except KeyError:
            raise PresentationError(f"undeclared object {name!r}") from None

    # -- typed views; the structures below H take it as an argument ----------

    def bialgebra(self) -> WeakBialgebra:
        """H, with its antipode when one is declared."""
        return WeakBialgebra.unchecked(
            self.field,
            self.obj("bialgebra"),
            self.gen(self.name("bialgebra", "mu", "mu")),
            self.gen(self.name("bialgebra", "eta", "eta")),
            self.gen(self.name("bialgebra", "delta", "Delta")),
            self.gen(self.name("bialgebra", "eps", "eps")),
            self.gen(self.name("antipode", "map")) if self.has_role("antipode") else None,
        )

    def algebra(self, tag: str) -> AlgebraData:
        mu, eta = self.name(tag, "mu"), self.name(tag, "eta")
        return AlgebraData(self.field, self.obj(tag), self.gen(mu), self.gen(eta))

    def measure(self, H: WeakBialgebra, rho_name: Optional[str] = None) -> WeakMeasure:
        A = self.algebra("measure")
        return WeakMeasure(H, A, self.gen(rho_name or self.name("measure", "rho")))

    def cocycle(self, m: WeakMeasure, f_name: Optional[str] = None) -> CocycleData:
        return CocycleData(m, self.gen(f_name or self.name("cocycle", "map")))

    def comodule(self, H: WeakBialgebra) -> ComoduleAlgebra:
        B = self.algebra("comodule")
        return ComoduleAlgebra(B, self.gen(self.name("comodule", "delta")), H)

    def extension(self, H: WeakBialgebra) -> Extension:
        A = self.algebra("extension")
        return Extension(self.comodule(H), A, self.gen(self.name("extension", "j")))

    def cleaving(self, X: Extension) -> CleavingData:
        gamma, gamma_inv = self.name("cleaving", "gamma"), self.name("cleaving", "gamma_inv")
        return CleavingData(X, self.gen(gamma), self.gen(gamma_inv))

    def phi(self, name: Optional[str] = None) -> LinMap:
        return self.gen(name or self.name("phi", "map"))


def _lists(*values, of=object) -> bool:
    """Whether every value is a list whose items are all of type ``of``."""
    return all(isinstance(v, list) and all(isinstance(x, of) for x in v) for v in values)


def parse_presentation(data: dict, field_override: Optional[str] = None) -> PresentationFile:
    if not isinstance(data, dict):
        raise PresentationError("a presentation must be a JSON object")
    try:
        field = field_from_spec(field_override or data["field"])
    except (KeyError, FieldError) as exc:
        raise PresentationError(f"bad field spec: {exc}") from None
    sections = {key: data.get(key, {}) for key in ("objects", "generators", "roles")}
    for key, value in sections.items():
        if not isinstance(value, dict):
            raise PresentationError(f"{key} must be an object")
    objects = {}
    for name, dim in sections["objects"].items():
        if type(dim) is not int or dim < 0:
            raise PresentationError(f"object {name!r} has bad dimension {dim!r}")
        objects[name] = Obj(name, dim)
    generators = {}
    for name, spec in sections["generators"].items():
        if name in objects:
            raise PresentationError(f"generator {name!r} is named like a declared object")
        if not isinstance(spec, dict):
            raise PresentationError(f"generator {name!r} must be an object")
        try:
            dom, cod, matrix = spec["dom"], spec["cod"], spec["matrix"]
        except KeyError as exc:
            raise PresentationError(f"generator {name!r} is missing {exc.args[0]!r}") from None
        if not (_lists(dom, cod, of=str) and _lists(matrix, of=list)):
            raise PresentationError(
                f"generator {name!r}: dom and cod must list object names, matrix its rows"
            )
        try:
            dom, cod = (tuple(objects[n] for n in word) for word in (dom, cod))
        except KeyError as exc:
            raise PresentationError(
                f"generator {name!r} names undeclared object {exc.args[0]!r}"
            ) from None
        nrows, ncols = wdim(cod), wdim(dom)
        if len(matrix) != nrows or any(len(r) != ncols for r in matrix):
            raise PresentationError(
                f"generator {name!r}: matrix shape does not match declared words"
            )
        for i, r in enumerate(matrix):
            for j, v in enumerate(r):
                if isinstance(v, float):
                    raise PresentationError(
                        f"generator {name!r}: entry (row {i}, col {j}) is a JSON float;"
                        " write it as a string or an integer"
                    )
        try:
            rows = [[field.parse(str(v)) for v in r] for r in matrix]
        except FieldError as exc:
            raise PresentationError(f"generator {name!r}: {exc}") from None
        generators[name] = LinMap(field, dom, cod, rows)
    for tag, spec in sections["roles"].items():
        if not isinstance(spec, dict):
            raise PresentationError(f"role {tag!r} must be an object")
    return PresentationFile(field, objects, generators, sections["roles"])


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
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
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


def report_to_json(
    report: VerdictReport, field: Field, input_sha256: str, millis: int = 0
) -> dict:
    return {
        "version": TOOL_VERSION,
        "input_sha256": input_sha256,
        "field": field.spec(),
        "entries": report.to_json_entries(field),
        "millis": millis,
    }
