"""determinism: no ambient entropy on simulation/payload paths.

Results are content-addressed: the same (config, workload, defense)
point must produce byte-identical payloads on every run, or the cache,
the sqlite store, the checkpoint digests and the differential oracles
all silently fork.  Inside the simulation and payload directories
(``sim/``, ``pipeline/``, ``memory/``, ``defenses/``, ``exp/``) that
rules out wall-clock reads (``time.time``, ``datetime.now``),
OS entropy (``os.urandom``, ``uuid.uuid4``) and the process-global
``random`` module (seedless by definition); randomness must flow from
an explicitly seeded ``random.Random(seed)``.  ``time.perf_counter``
stays legal — interval timing feeds telemetry, never payloads.

A reviewed exception is an inline allow on the call's own line,
``# determinism: allow <code>: <reason>``.  It is honoured only when it
names the finding's code and gives a non-empty reason; an allow without
a reason (``allow-no-reason``) or one that suppresses nothing on its
line (``unused-allow``) is itself a finding, so the ledger cannot rot.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from typing import Dict, List, Optional, Tuple

from repro.lintkit.astutil import Finding, dotted_name, python_files, \
    read

SCOPE = ("src/repro/sim", "src/repro/pipeline", "src/repro/memory",
         "src/repro/defenses", "src/repro/exp")

#: Dotted call names that read the wall clock.
WALL_CLOCK = frozenset({
    "time.time", "time.time_ns", "time.monotonic",
    "time.monotonic_ns", "datetime.now", "datetime.utcnow",
    "datetime.today", "date.today", "datetime.datetime.now",
    "datetime.datetime.utcnow", "datetime.date.today",
})

#: Dotted call names that draw OS entropy.
ENTROPY = frozenset({
    "os.urandom", "uuid.uuid1", "uuid.uuid4", "secrets.token_bytes",
    "secrets.token_hex", "secrets.randbelow",
})

#: Module-level ``random.*`` functions (the global, unseeded RNG).
GLOBAL_RANDOM = frozenset({
    "random.random", "random.randint", "random.randrange",
    "random.choice", "random.choices", "random.shuffle",
    "random.sample", "random.uniform", "random.getrandbits",
    "random.gauss", "random.seed",
})

#: ``# determinism: allow <code>: <reason>`` (see the module docstring).
ALLOW_RE = re.compile(r"#\s*determinism:\s*allow\s+([\w-]+)\s*:?\s*(.*)$")


def check(root: str) -> List[Finding]:
    """Simulation/payload code must be bit-reproducible."""
    return _scan(root)[0]


def allowed(root: str) -> List[Finding]:
    """The findings that reviewed inline allows suppress."""
    return _scan(root)[1]


def _scan(root: str) -> Tuple[List[Finding], List[Finding]]:
    """``(findings, allowed)`` over the payload directories."""
    findings: List[Finding] = []
    suppressed: List[Finding] = []
    for subdir in SCOPE:
        for path in python_files(root, subdir):
            _scan_file(path, read(root, path), findings, suppressed)
    return findings, suppressed


def _scan_file(path: str, text: str, findings: List[Finding],
               suppressed: List[Finding]) -> None:
    tree = ast.parse(text, filename=path)
    allows: Dict[int, Tuple[str, str]] = {}
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        match = ALLOW_RE.match(token.string) \
            if token.type == tokenize.COMMENT else None
        if match:
            allows[token.start[0]] = (match.group(1),
                                      match.group(2).strip())
    used = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        code = _classify(name, node) if name is not None else None
        if code is None:
            continue
        finding = Finding(
            path, node.lineno, code, name,
            "%s() is nondeterministic on a payload path (%s); see "
            "docs/linting.md#determinism" % (name, code))
        allow = allows.get(node.lineno)
        if allow is not None and allow[0] == code and allow[1]:
            used.add(node.lineno)
            suppressed.append(finding)
        else:
            findings.append(finding)
    for line, (code, reason) in sorted(allows.items()):
        if not reason:
            findings.append(Finding(
                path, line, "allow-no-reason", code,
                "inline allow for %s gives no reason" % code))
        elif line not in used:
            findings.append(Finding(
                path, line, "unused-allow", code,
                "inline allow for %s suppresses no call on its line"
                % code))


def _classify(name: str, node: ast.Call) -> Optional[str]:
    if name in WALL_CLOCK:
        return "wall-clock"
    if name in ENTROPY:
        return "entropy"
    if name in GLOBAL_RANDOM:
        return "global-random"
    if name in ("random.Random", "random.SystemRandom", "SystemRandom"):
        if name.endswith("SystemRandom"):
            return "unseeded-random"
        if not node.args and not node.keywords:
            return "unseeded-random"
    return None
