"""Structured result documents for the command line tools.

A report is a list of named check records plus an echo of the run
configuration.  Rendering is deterministic: records sort by name, JSON
keys sort, and nothing time- or machine-dependent is emitted, so two
runs with the same configuration produce identical bytes.
"""

import json
from dataclasses import dataclass, field as dc_field

from . import __version__

PASS = "pass"
FAIL = "fail"
NOT_DECIDED = "not_decided"


def _plain(value):
    """Recursively reduce to JSON-safe data with deterministic ordering.
    Fractions and prime-field elements render as strings; ints, among
    them the integral rationals, stay numbers."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        items = sorted(value.items(), key=lambda kv: _keystr(kv[0]))
        return {_keystr(k): _plain(v) for k, v in items}
    return str(value)


def _keystr(k) -> str:
    if isinstance(k, str):
        return k
    if isinstance(k, (list, tuple)):
        return " ".join(_keystr(x) for x in k)
    return str(k)


@dataclass
class CheckRecord:
    name: str
    status: str
    detail: str = ""
    witness: object = None
    dims: object = None

    def to_dict(self) -> dict:
        out = {"name": self.name, "status": self.status, "detail": self.detail}
        if self.witness is not None:
            out["witness"] = _plain(self.witness)
        if self.dims is not None:
            out["dims"] = _plain(self.dims)
        return out


@dataclass
class Report:
    command: str
    config: dict
    records: list = dc_field(default_factory=list)
    version: str = __version__

    def add(self, name: str, ok, detail: str = "", witness=None, dims=None):
        if ok is True:
            status = PASS
        elif ok is False:
            status = FAIL
        else:
            status = NOT_DECIDED
        # witnesses accompany failures only
        if status != FAIL:
            witness = None
        self.records.append(CheckRecord(name, status, detail, witness, dims))

    @property
    def failed(self) -> bool:
        return any(r.status == FAIL for r in self.records)

    def exit_code(self) -> int:
        return 1 if self.failed else 0

    def sorted_records(self):
        return sorted(self.records, key=lambda r: r.name)

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "command": self.command,
            "config": _plain(self.config),
            "checks": [r.to_dict() for r in self.sorted_records()],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        lines = ["%s (%s)" % (self.command, self._config_line())]
        for r in self.sorted_records():
            tag = {"pass": "PASS", "fail": "FAIL"}.get(r.status, "----")
            line = "[%s] %s" % (tag, r.name)
            if r.detail:
                line += ": " + r.detail
            lines.append(line)
            if r.witness is not None:
                lines.append("       witness: %s" % (_plain(r.witness),))
        npass = sum(1 for r in self.records if r.status == PASS)
        nfail = sum(1 for r in self.records if r.status == FAIL)
        nopen = len(self.records) - npass - nfail
        lines.append("%d passed, %d failed, %d not decided" % (npass, nfail, nopen))
        return "\n".join(lines)

    def _config_line(self) -> str:
        items = sorted(self.config.items())
        return ", ".join("%s=%s" % (k, v) for k, v in items if v is not None)
