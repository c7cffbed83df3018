"""SMT-LIB serialization, solver subprocess driver, and model parsing.

All solver interaction is batch: one script down the child's standard input,
one response back.  The script always ends with (check-sat)(get-model); the
model block is only parsed when the answer is `sat`, so solvers that complain
about the trailing (get-model) after unsat still classify cleanly.

The executable comes from, in precedence order: an explicit config, the
SOLVER_BIN environment variable, a `cvc5` on PATH, then the bundled
finite-model solver (``python -m cedar_engine.minisolver``).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from typing import Optional

from .ast import CedarError
from .sexpr import SexprError, is_string_literal, read_sexprs
from .terms import BOOL_S, TConst, Term, sort_check, sort_sexpr, term_sexpr


class SolverUnavailable(CedarError):
    """The solver executable could not be spawned."""


class SolverFailure(CedarError):
    """The solver exited without producing a sat/unsat/unknown answer."""


class ModelParseError(CedarError):
    def __init__(self, message: str, raw: str):
        super().__init__(f"{message}\n--- raw solver output ---\n{raw}")
        self.raw = raw


# ---------------------------------------------------------------------------
# Script printing
# ---------------------------------------------------------------------------

_OPTION_DECL = "(declare-datatypes ((Option 1)) ((par (X) ((none) (some (val X))))))"


def _walk_consts(t: Term, out: set) -> None:
    if isinstance(t, TConst):
        out.add((t.name, t.sort))
    for attr in ("arg", "cond", "then", "els", "left", "right", "elem", "set", "s"):
        child = getattr(t, attr, None)
        if isinstance(child, Term):
            _walk_consts(child, out)
    args = getattr(t, "args", None)
    if isinstance(args, tuple):
        for a in args:
            if isinstance(a, Term):
                _walk_consts(a, out)


def print_script(senv, assertions) -> str:
    """Deterministic SMT-LIB 2 text: declarations in dependency order, one
    assert per term, then (check-sat)."""
    signatures = senv.signatures()
    used_consts: set = set()
    for a in assertions:
        got = sort_check(a, signatures)
        if got != BOOL_S:
            from .terms import InternalSortError

            raise InternalSortError(f"assertion of sort {sort_sexpr(got)}")
        _walk_consts(a, used_consts)
    for name, sort in used_consts:
        declared = senv.const_sigs.get(name)
        if declared != sort:
            from .terms import InternalSortError

            raise InternalSortError(f"constant {name} used at {sort_sexpr(sort)}")
    lines = ["(set-logic ALL)", "(set-option :produce-models true)", _OPTION_DECL]
    for name, fields in senv.datatypes:
        cols = "".join(f" ({sel} {sort_sexpr(sort)})" for sel, sort in fields)
        lines.append(f"(declare-datatype {name} (({name}{cols})))")
    for fn in senv.fn_order:
        args, ret = senv.fn_sigs[fn]
        arg_text = " ".join(sort_sexpr(s) for s in args)
        lines.append(f"(declare-fun {fn} ({arg_text}) {sort_sexpr(ret)})")
    for name in senv.const_order:
        lines.append(f"(declare-const {name} {sort_sexpr(senv.const_sigs[name])})")
    for a in assertions:
        lines.append(f"(assert {term_sexpr(a)})")
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"


def _read(text: str) -> list:
    try:
        return read_sexprs(text)
    except SexprError as err:
        raise ModelParseError(f"{err} in solver output", text) from None


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------


@dataclass
class Model:
    defs: dict  # name -> (params [(name, sort-sexp)], body sexp)

    @staticmethod
    def parse(text: str) -> "Model":
        defs: dict = {}

        def collect(items) -> None:
            for item in items:
                if isinstance(item, tuple) and item:
                    if item[0] == "define-fun" and len(item) >= 5:
                        name = item[1]
                        params = [(p[0], p[1]) for p in item[2]]
                        defs[str(name)] = (params, item[4])
                    elif item[0] == "model":
                        collect(item[1:])
                    elif item[0] != "define-fun" and all(isinstance(x, tuple) for x in item):
                        # cvc5 wraps the model in a bare paren block.
                        collect(item)
        collect(_read(text))
        if not defs:
            raise ModelParseError("no define-fun entries found in model", text)
        return Model(defs)


class ModelEvaluator:
    """Evaluates model define-fun bodies (and ground term s-expressions).

    Values: True/False, ("bv", int), ("string", str), ("dt", ctor, args),
    ("set", frozenset), ("some", v), ("none",).
    """

    def __init__(self, model: Model, selectors: Optional[dict] = None):
        self.model = model
        self.selectors = selectors or {}

    def eval_sexpr(self, text: str):
        parsed = _read(text)
        if len(parsed) != 1:
            raise ModelParseError("expected a single term", text)
        return self.eval(parsed[0], {})

    def apply(self, fn: str, args: list):
        if fn not in self.model.defs:
            raise ModelParseError(f"model has no definition for {fn}", "")
        params, body = self.model.defs[fn]
        env = {name: value for (name, _), value in zip(params, args)}
        return self.eval(body, env)

    def eval(self, sexp, env: dict):
        if is_string_literal(sexp):
            return sexp
        if isinstance(sexp, int):
            return ("int", sexp)
        if isinstance(sexp, str):
            if sexp in env:
                return env[sexp]
            if sexp == "true":
                return True
            if sexp == "false":
                return False
            if sexp in self.model.defs:
                params, body = self.model.defs[sexp]
                if params:
                    raise ModelParseError(f"{sexp} used without arguments", "")
                return self.eval(body, {})
            # Bare symbol: a nullary datatype constructor.
            return ("dt", sexp, ())
        if not isinstance(sexp, tuple) or not sexp:
            raise ModelParseError(f"cannot evaluate {sexp!r}", "")
        head = sexp[0]
        if head == "let":
            new_env = dict(env)
            for name, value in sexp[1]:
                new_env[name] = self.eval(value, env)
            return self.eval(sexp[2], new_env)
        if head == "ite":
            cond = self.eval(sexp[1], env)
            return self.eval(sexp[2] if cond is True else sexp[3], env)
        if head == "=":
            return self.eval(sexp[1], env) == self.eval(sexp[2], env)
        if head == "distinct":
            return self.eval(sexp[1], env) != self.eval(sexp[2], env)
        if head == "not":
            return self.eval(sexp[1], env) is not True
        if head == "and":
            return all(self.eval(x, env) is True for x in sexp[1:])
        if head == "or":
            return any(self.eval(x, env) is True for x in sexp[1:])
        if head == "=>":
            return (self.eval(sexp[1], env) is not True) or (self.eval(sexp[2], env) is True)
        if head == "some":
            return ("some", self.eval(sexp[1], env))
        if head == "val":
            v = self.eval(sexp[1], env)
            if isinstance(v, tuple) and v[0] == "some":
                return v[1]
            raise ModelParseError("val applied to a non-some value", "")
        if head == "as":
            target = sexp[1]
            if target == "none":
                return ("none",)
            if target == "set.empty" or (isinstance(target, tuple) and target[:2] == ("set", "empty")):
                return ("set", frozenset())
            return self.eval(target, env)
        if head == "set.empty" or head == ("set.empty",):
            return ("set", frozenset())
        if head == "set.singleton":
            return ("set", frozenset({self.eval(sexp[1], env)}))
        if head == "set.union":
            a = self.eval(sexp[1], env)
            b = self.eval(sexp[2], env)
            return ("set", a[1] | b[1])
        if head == "set.inter":
            a = self.eval(sexp[1], env)
            b = self.eval(sexp[2], env)
            return ("set", a[1] & b[1])
        if head == "set.minus":
            a = self.eval(sexp[1], env)
            b = self.eval(sexp[2], env)
            return ("set", a[1] - b[1])
        if head == "set.insert":
            members = [self.eval(x, env) for x in sexp[1:-1]]
            base = self.eval(sexp[-1], env)
            return ("set", base[1] | frozenset(members))
        if head == "set.member":
            elem = self.eval(sexp[1], env)
            st = self.eval(sexp[2], env)
            return elem in st[1]
        if head == "set.subset":
            a = self.eval(sexp[1], env)
            b = self.eval(sexp[2], env)
            return a[1] <= b[1]
        if head == "_":
            # (_ bvN 64)
            if len(sexp) == 3 and isinstance(sexp[1], str) and sexp[1].startswith("bv"):
                return ("bv", int(sexp[1][2:]))
            raise ModelParseError(f"cannot evaluate indexed symbol {sexp!r}", "")
        if isinstance(head, tuple):
            # ((_ is some) x) and other testers
            if head[:2] == ("_", "is"):
                v = self.eval(sexp[1], env)
                ctor = head[2]
                if ctor == "some":
                    return isinstance(v, tuple) and v[0] == "some"
                if ctor == "none":
                    return isinstance(v, tuple) and v[0] == "none"
                return isinstance(v, tuple) and v[0] == "dt" and v[1] == ctor
            if head[0] == "as":
                return self.eval((head[1],) + sexp[1:], env)
        if isinstance(head, str):
            args = [self.eval(x, env) for x in sexp[1:]]
            if head in self.model.defs:
                params, body = self.model.defs[head]
                new_env = {name: value for (name, _), value in zip(params, args)}
                return self.eval(body, new_env)
            if head in self.selectors:
                dt_name, index = self.selectors[head]
                v = args[0]
                if isinstance(v, tuple) and v[0] == "dt" and v[1] == dt_name:
                    return v[2][index]
                raise ModelParseError(f"selector {head} applied to {v!r}", "")
            return ("dt", head, tuple(args))
        raise ModelParseError(f"cannot evaluate {sexp!r}", "")


def selector_table(senv) -> dict:
    out = {}
    for dt_name, fields in senv.datatypes:
        for index, (sel, _) in enumerate(fields):
            out[sel] = (dt_name, index)
    return out


# ---------------------------------------------------------------------------
# Running the solver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SolverOutcome:
    kind: str  # "sat" | "unsat" | "unknown" | "timeout"
    model: Optional[Model] = None
    detail: str = ""


@dataclass(frozen=True)
class SolverConfig:
    argv: tuple
    timeout_ms: int = 60000

    def __post_init__(self):
        if self.timeout_ms <= 0:
            raise ValueError("timeout must be positive")

    @staticmethod
    def bundled(timeout_ms: int = 60000) -> "SolverConfig":
        return SolverConfig((sys.executable, "-m", "cedar_engine.minisolver"), timeout_ms)

    @staticmethod
    def for_executable(path: str, timeout_ms: int = 60000) -> "SolverConfig":
        base = os.path.basename(path)
        if "cvc5" in base or "cvc4" in base:
            return SolverConfig((path, "--lang", "smt2", "-q"), timeout_ms)
        return SolverConfig((path,), timeout_ms)

    @staticmethod
    def default(timeout_ms: int = 60000) -> "SolverConfig":
        env_bin = os.environ.get("SOLVER_BIN")
        if env_bin:
            return SolverConfig.for_executable(env_bin, timeout_ms)
        found = shutil.which("cvc5")
        if found:
            return SolverConfig.for_executable(found, timeout_ms)
        return SolverConfig.bundled(timeout_ms)


def run_solver(config: SolverConfig, script: str) -> SolverOutcome:
    """Stream the script to the solver and classify the response.

    The child is always reaped;  wall-clock overrun returns Timeout.  A `sat`
    answer is followed by the model read from the same response.
    """
    payload = script + "(get-model)\n"
    try:
        proc = subprocess.Popen(
            list(config.argv),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
    except FileNotFoundError as err:
        raise SolverUnavailable(f"cannot spawn solver {config.argv[0]!r}: {err}") from None
    try:
        stdout, stderr = proc.communicate(payload, timeout=config.timeout_ms / 1000.0)
    except subprocess.TimeoutExpired:
        proc.kill()
        try:
            proc.communicate(timeout=1.0)
        except Exception:
            pass
        return SolverOutcome("timeout", detail=f"exceeded {config.timeout_ms} ms")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    result = None
    rest_index = 0
    for line in stdout.splitlines(keepends=True):
        rest_index += len(line)
        word = line.strip()
        if word in ("sat", "unsat", "unknown"):
            result = word
            break
    if result is None:
        raise SolverFailure(
            f"solver produced no answer (exit {proc.returncode}):\n{stdout}\n{stderr}"
        )
    if result == "unsat":
        return SolverOutcome("unsat")
    if result == "unknown":
        reason = stderr.strip() or "solver returned unknown"
        return SolverOutcome("unknown", detail=reason)
    model_text = stdout[rest_index:]
    model = Model.parse(model_text)
    return SolverOutcome("sat", model=model)
