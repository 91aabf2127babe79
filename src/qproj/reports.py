"""Structured pass/fail records produced by the verification routines.

Every check in the package reports through the same six-field record so
that machine output (one JSON object per line) stays uniform across
modules.  ``params`` identifies the check instance; ``counterexample``
is None on success and a small JSON-ready dict on failure.
"""

from __future__ import annotations

from .errors import InvalidClass, OutOfRange, Value, integer


class _Params(dict):
    """A report's params: a read-only dict, pickled and copied as a plain one."""

    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise TypeError("a report's params are read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return dict, (dict(self),)


class VerifyReport(Value):
    """One check's record; ``params`` (kept as a read-only copy) and the bool
    ``passed`` are required, so no record passes by default; each size is None
    or a count, so the JSON record holds exactly those."""

    __slots__ = ("check", "params", "passed", "domain_size", "image_size", "counterexample")

    def __init__(self, check, params, passed, domain_size=None, image_size=None,
                 counterexample=None):
        if type(passed) is not bool:
            raise InvalidClass(f"passed must be true or false, got {passed!r}")
        for name, size in (("domain size", domain_size), ("image size", image_size)):
            if size is not None:
                integer(size, name, 0, error=OutOfRange)
        self._store("check", check)
        self._store("params", _Params(params))
        self._store("passed", passed)
        self._store("domain_size", domain_size)
        self._store("image_size", image_size)
        self._store("counterexample", counterexample)

    def to_json(self):
        return {
            "check": self.check,
            "params": dict(self.params),
            "domain_size": self.domain_size,
            "image_size": self.image_size,
            "pass": self.passed,
            "counterexample": self.counterexample,
        }

    def line(self):
        """One human-readable line, e.g. for a terminal summary."""
        status = "PASS" if self.passed else "FAIL"
        params = " ".join(f"{k}={v}" for k, v in self.params.items())
        sizes = ""
        if self.domain_size is not None:
            sizes = f" [{self.domain_size}"
            sizes += f"->{self.image_size}]" if self.image_size is not None else "]"
        return f"{status} {self.check} {params}{sizes}".rstrip()
