"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI: InputError -> 3, InfeasibleError -> 2,
SizeCapExceededError -> 4.
"""
import copyreg


class GeodomError(Exception):
    """Base class for every error raised by this package.

    Pickling and copying rebuild an error through ``cls.__new__`` and then
    restore ``args`` and the attributes, so no custom ``__init__`` is
    replayed on a message it has already formatted.
    """

    def __reduce__(self):
        return copyreg.__newobj__, (type(self),), {**self.__dict__, "args": self.args}


class InputError(GeodomError):
    """Malformed or invalid input data."""


class InfeasibleError(GeodomError):
    """The instance admits no solution."""


class SizeCapExceededError(GeodomError):
    """An exact solver was asked to exceed its configured size cap."""


class InvalidInputError(InputError):
    pass


class UnmetConstraintError(InfeasibleError):
    """A constraint meets no candidate.

    ``id`` is the constraint's id and ``role`` what the constraint is; the
    subclasses name the role and keep the id under ``<role>_id`` too.
    """

    role = "constraint"
    candidate = "candidate"

    def __init__(self, id: int):
        super().__init__(f"{self.role} {id} intersects no {self.candidate}")
        self.id = id
        setattr(self, f"{self.role}_id", id)


class InfeasibleSegmentError(UnmetConstraintError):
    """A constraint segment meets no candidate ray."""

    role, candidate = "segment", "ray"


class InfeasibleRayError(UnmetConstraintError):
    """A constraint ray meets no candidate segment."""

    role, candidate = "ray", "segment"


class InfeasibleTargetError(UnmetConstraintError):
    """A target segment meets no candidate segment."""

    role = "target"


class InfeasibleConstraintError(UnmetConstraintError):
    """A constraint segment meets no candidate segment."""


class AssumptionViolationError(InputError):
    """A grounded L-path instance breaks one of its structural assumptions.

    ``which`` is one of "i" (some path misses the grounding line), "ii" (a
    corner lies on the grounding line or right of it), "iii" (two paths meet
    in more than one point).
    """

    def __init__(self, which: str, ids=()):
        super().__init__(f"assumption ({which}) violated by paths {sorted(ids)}")
        self.which = which
        self.ids = tuple(sorted(ids))


class NotProperError(InputError):
    """A projection family contains nested intervals."""

    def __init__(self, orientation: str, ids=()):
        super().__init__(f"{orientation} projections are not proper: {sorted(ids)}")
        self.orientation = orientation
        self.ids = tuple(sorted(ids))


class InvalidPathError(InputError):
    """A rectilinear path breaks alternation or leg-count rules."""

    def __init__(self, path_id: int, reason: str = ""):
        super().__init__(f"path {path_id} is invalid: {reason}")
        self.path_id = path_id


class UncoveredRowError(GeodomError):
    """A threshold split left some constraint row in no part.

    ``row_index`` is the row id for ``lp.lp_round`` and the row's position
    in the program for ``lp.threshold_split``.
    """

    def __init__(self, row_index: int):
        super().__init__(f"row {row_index} reaches the threshold in no part")
        self.row_index = row_index


class GenerationExhaustedError(GeodomError):
    """A random generator ran out of retries while enforcing validity."""
