"""Huge entity hierarchies, authorized through the CLI in a child process.

Each case writes an entities file, a one-policy set and a request whose
principal reaches the policy's scope entity through the hierarchy, so the
expected decision is ALLOW.  The entities JSON is written as text, so that
generating a case costs little next to loading it.

    python tests/huge_hierarchy.py CASE DIR

writes case CASE (one of ``CASES``) into DIR, runs ``cedar-engine
authorize`` on it in a child process (which inherits any ``ulimit -v``), and
exits 0 only if that child exits 0 or 1 with a decision on its first line and
no traceback.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _uid(entity_type: str, entity_id: str) -> str:
    return json.dumps({"type": entity_type, "id": entity_id})


def _entity(uid: str, parents: str) -> str:
    return f'{{"uid": {uid}, "parents": [{parents}]}}'


def chain(n: int):
    """G::"0" in G::"1" in ... in G::"n-1"; the bottom entity against the top."""
    entities = [_entity(_uid("G", str(i)), _uid("G", str(i + 1)) if i + 1 < n else "") for i in range(n)]
    return entities, ("G", "0"), ("G", str(n - 1))


def fan_out(n: int):
    """n children of one group; the last child against the group."""
    entities = [_entity(_uid("G", "root"), "")]
    entities += [_entity(_uid("U", str(i)), _uid("G", "root")) for i in range(n)]
    return entities, ("U", str(n - 1)), ("G", "root")


def bipartite(n: int):
    """Two layers of n entities, each lower one a child of every upper one."""
    uppers = ", ".join(_uid("Up", str(j)) for j in range(n))
    entities = [_entity(_uid("Up", str(j)), "") for j in range(n)]
    entities += [_entity(_uid("Low", str(i)), uppers) for i in range(n)]
    return entities, ("Low", "0"), ("Up", str(n - 1))


CASES = {
    "chain": lambda: chain(100_000),
    "fan-out": lambda: fan_out(100_000),
    "bipartite": lambda: bipartite(1_000),
}


def write_case(case, directory: str) -> list:
    """Write one case's files into ``directory``; returns the CLI arguments."""
    entities, principal, scope = case
    paths = {name: os.path.join(directory, name) for name in ("entities.json", "policies.cedar", "request.json")}
    with open(paths["entities.json"], "w", encoding="utf-8") as fh:
        fh.write("[\n" + ",\n".join(entities) + "\n]\n")
    with open(paths["policies.cedar"], "w", encoding="utf-8") as fh:
        fh.write(f'permit(principal in {scope[0]}::{json.dumps(scope[1])}, action, resource);\n')
    request = {
        "principal": {"type": principal[0], "id": principal[1]},
        "action": {"type": "Action", "id": "view"},
        "resource": {"type": "Doc", "id": "d"},
    }
    with open(paths["request.json"], "w", encoding="utf-8") as fh:
        json.dump(request, fh)
    return [
        "authorize",
        "--policies", paths["policies.cedar"],
        "--entities", paths["entities.json"],
        "--request", paths["request.json"],
    ]


def address_space_cap(limit: int):
    """A ``preexec_fn`` that caps the child's address space at ``limit``
    bytes (or at the hard limit, if that is lower); the caller is untouched."""

    def cap():
        import resource

        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        resource.setrlimit(resource.RLIMIT_AS, (limit if hard == resource.RLIM_INFINITY else min(limit, hard), hard))

    return cap


def authorize(args: list, preexec_fn=None, timeout: float = 600) -> subprocess.CompletedProcess:
    """``cedar-engine authorize`` with ``args`` in a child process."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    return subprocess.run(
        [sys.executable, "-m", "cedar_engine", *args],
        capture_output=True,
        text=True,
        env=env,
        preexec_fn=preexec_fn,
        timeout=timeout,
    )


def decided(proc: subprocess.CompletedProcess) -> bool:
    """Exit 0 or 1 with a decision first, and no traceback."""
    first = proc.stdout.splitlines()[:1]
    return proc.returncode in (0, 1) and first in (["ALLOW"], ["DENY"]) and "Traceback" not in proc.stderr


def main(argv: list) -> int:
    name, directory = argv
    os.makedirs(directory, exist_ok=True)
    proc = authorize(write_case(CASES[name](), directory))
    print(f"{name}: exit {proc.returncode}, {proc.stdout.splitlines()[:1]}, stderr {proc.stderr[-300:]!r}")
    return 0 if decided(proc) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
