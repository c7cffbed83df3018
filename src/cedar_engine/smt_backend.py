"""Scripts as SMT-LIB text or as commands over terms, running the solver, models.

All solver interaction is batch: one script in, one response back.  The
script always ends with (check-sat)(get-model); the model block is only
parsed when the answer is `sat`, so solvers that complain about the trailing
(get-model) after unsat still classify cleanly.

The solver comes from, in precedence order: an explicit config, the
SOLVER_BIN environment variable, a `cvc5` on PATH, then the bundled
finite-model solver, which runs in this process and takes the assertion
terms themselves; any other solver runs as a child process that reads text
on standard input.
"""

from __future__ import annotations

import io
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Optional

from .ast import CedarError
from .sexpr import BUILT_IN_LEAVES, SexprError, is_string_literal, read_sexprs, write_sexpr
from .terms import BOOL_S, InternalSortError, Term, term_shape


class SolverUnavailable(CedarError):
    """The solver executable could not be spawned."""


class SolverFailure(CedarError):
    """The solver exited without producing a sat/unsat/unknown answer."""


class ModelParseError(SolverFailure):
    """The solver's model could not be read."""

    def __init__(self, message: str, raw: str):
        super().__init__(f"{message}\n--- raw solver output ---\n{raw}")
        self.raw = raw


# ---------------------------------------------------------------------------
# Scripts
# ---------------------------------------------------------------------------

_OPTION_DECL = "(declare-datatypes ((Option 1)) ((par (X) ((none) (some (val X))))))"


# A shared subterm whose text is no longer than this is written out
# wherever it occurs: naming it would save little and hide it from a reader.
_INLINE_CHARS = 40


def _visit(node: Term, uses: dict, order: list, consts: set, signatures: dict) -> None:
    if node in uses:
        uses[node] += 1
        return
    uses[node] = 1
    head = node.head
    if type(head) is str:
        if head in signatures:
            want_args, want_res = signatures[head]
            got = tuple(a.sort for a in node.args)
            if tuple(want_args) != got or want_res != node.sort:
                raise InternalSortError(f"application {head}: got {[write_sexpr(s) for s in got]}")
        elif not node.args and head not in BUILT_IN_LEAVES:
            consts.add((head, node.sort))
    for child in node.args:
        _visit(child, uses, order, consts, signatures)
    order.append(node)


def _checked_walks(senv, assertions) -> list:
    """For each assertion, (uses, order): how often each distinct subterm
    occurs as an argument (the root: once), and the distinct
    subterms, each after its arguments.

    The terms' own sorts were checked when they were built; here each
    assertion must be Bool, every application of a declared function,
    constructor or selector must agree with its signature, and every
    constant with its declaration in `senv`."""
    for a in assertions:
        if a.sort != BOOL_S:
            raise InternalSortError(f"assertion of sort {write_sexpr(a.sort)}")
    signatures = senv.signatures()
    consts: set = set()
    walks = []
    for a in assertions:
        walks.append(({}, []))
        _visit(a, *walks[-1], consts, signatures)
    for name, sort in consts:
        if senv.const_sigs.get(name) != sort:
            raise InternalSortError(f"constant {name} used at {write_sexpr(sort)}")
    return walks


def _declarations(senv) -> list:
    """The declaration commands of a script, as trees, in dependency order."""
    out = []
    for name, fields in senv.datatypes:
        out.append(("declare-datatype", name, ((name, *fields),)))
    for fn, (args, ret) in senv.fn_sigs.items():
        out.append(("declare-fun", fn, args, ret))
    for name, sort in senv.const_sigs.items():
        out.append(("declare-const", name, sort))
    return out


def _let_sexpr(t: Term, uses: dict, order: list) -> str:
    """term_sexpr(t), except that a subterm occurring more than once, and
    longer than _INLINE_CHARS, is bound once by a `let` and named where it
    occurs, so the text grows with the distinct subterms, not with the
    unfolded tree.  `uses` and `order` are t's walk.

    A binding's term names only bindings of earlier lets, so the lets nest
    as deep as the chain of shared subterms, not one per binding.
    """
    text: dict = {}  # node -> what stands for the node
    depth: dict = {}  # node -> lets its text must be inside
    lets: list = []  # bindings of each let, outermost first
    bound = 0
    leaf = lambda x: text[x] if isinstance(x, Term) else str(x)  # noqa: E731
    for node in order:
        need = max((depth[c] for c in node.args), default=0)
        body = write_sexpr(term_shape(node), leaf)
        if uses[node] > 1 and len(body) > _INLINE_CHARS:
            if need == len(lets):
                lets.append([])
            name = f"_let!{bound}"
            bound += 1
            lets[need].append(f"({name} {body})")
            text[node], depth[node] = name, need + 1
        else:
            text[node], depth[node] = body, need
    return "".join(f"(let ({' '.join(b)}) " for b in lets) + text[t] + ")" * len(lets)


def print_script(senv, assertions) -> str:
    """Deterministic SMT-LIB 2 text: declarations in dependency order, one
    assert per term, then (check-sat).  Subterms shared within an assertion
    are written once (see _let_sexpr).  Raises InternalSortError as
    `_checked_walks` does."""
    walks = _checked_walks(senv, assertions)
    lines = ["(set-logic ALL)", "(set-option :produce-models true)", _OPTION_DECL]
    lines.extend(map(write_sexpr, _declarations(senv)))
    lines.extend(f"(assert {_let_sexpr(a, *walk)})" for a, walk in zip(assertions, walks))
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"


def script_commands(senv, assertions) -> list:
    """The commands of print_script(senv, assertions) for the bundled
    solver: the declarations as `read_sexprs` reads them, then an assert of
    each term itself, then check-sat.  The set-logic, set-option and Option
    declarations, which the bundled solver skips, are left out.  Raises
    InternalSortError as print_script does."""
    _checked_walks(senv, assertions)
    return [*_declarations(senv), *[("assert", a) for a in assertions], ("check-sat",)]


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
        return Model.of(_read(text))

    @staticmethod
    def of(trees: list) -> "Model":
        """The model in solver-output trees: define-fun entries, bare or
        inside a `(model ...)` or paren block."""
        defs: dict = {}
        # An explicit worklist (next item last) rather than a self-recursive
        # closure, which would leave a reference cycle behind every parse.
        todo = list(reversed(trees))
        while todo:
            item = todo.pop()
            if not (isinstance(item, tuple) and item):
                continue
            if item[0] == "define-fun" and len(item) >= 5:
                defs[str(item[1])] = ([(p[0], p[1]) for p in item[2]], item[4])
            elif item[0] == "model":
                todo.extend(reversed(item[1:]))
            elif item[0] != "define-fun" and all(isinstance(x, tuple) for x in item):
                # cvc5 wraps the model in a bare paren block.
                todo.extend(reversed(item))
        if not defs:
            raise ModelParseError("no define-fun entries found in model", "\n".join(map(write_sexpr, trees)))
        return Model(defs)


_SET_OPS = {"set.union": frozenset.__or__, "set.inter": frozenset.__and__, "set.minus": frozenset.__sub__}


class ModelEvaluator:
    """Evaluates model define-fun bodies, and ground terms (a `Term` or a
    tree).

    Values: True/False, ("bv", int), ("string", str), ("dt", ctor, args),
    ("set", frozenset), ("some", v), ("none",).
    """

    def __init__(self, model: Model, selectors: Optional[dict] = None):
        self.model = model
        self.selectors = selectors or {}

    def apply(self, fn: str, args: list):
        if fn not in self.model.defs:
            raise ModelParseError(f"model has no definition for {fn}", "")
        params, body = self.model.defs[fn]
        return self.eval(body, {name: value for (name, _), value in zip(params, args)})

    def eval(self, sexp, env: dict):
        if type(sexp) is Term:
            sexp = term_shape(sexp)  # its arguments are terms still
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
                if self.model.defs[sexp][0]:
                    raise ModelParseError(f"{sexp} used without arguments", "")
                return self.apply(sexp, [])
            # Bare symbol: a nullary datatype constructor.
            return ("dt", sexp, ())
        if not isinstance(sexp, tuple) or not sexp:
            raise ModelParseError(f"cannot evaluate {sexp!r}", "")
        head = sexp[0]
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
        if head in _SET_OPS:
            return ("set", _SET_OPS[head](self.eval(sexp[1], env)[1], self.eval(sexp[2], env)[1]))
        if head == "set.insert":
            members = [self.eval(x, env) for x in sexp[1:-1]]
            base = self.eval(sexp[-1], env)
            return ("set", base[1] | frozenset(members))
        if head == "set.member":
            return self.eval(sexp[1], env) in self.eval(sexp[2], env)[1]
        if head == "set.subset":
            return self.eval(sexp[1], env)[1] <= self.eval(sexp[2], env)[1]
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
                if ctor in ("some", "none"):
                    return isinstance(v, tuple) and v[0] == ctor
                return isinstance(v, tuple) and v[0] == "dt" and v[1] == ctor
            if head[0] == "as":
                return self.eval((head[1],) + sexp[1:], env)
        if isinstance(head, str):
            args = [self.eval(x, env) for x in sexp[1:]]
            if head in self.model.defs:
                return self.apply(head, args)
            if head in self.selectors:
                dt_name, index = self.selectors[head]
                v = args[0]
                if isinstance(v, tuple) and v[0] == "dt" and v[1] == dt_name:
                    return v[2][index]
                raise ModelParseError(f"selector {head} applied to {v!r}", "")
            return ("dt", head, tuple(args))
        raise ModelParseError(f"cannot evaluate {sexp!r}", "")


def selector_table(senv) -> dict:
    return {sel: (dt_name, index) for dt_name, fields in senv.datatypes for index, (sel, _) in enumerate(fields)}


# ---------------------------------------------------------------------------
# Running the solver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SolverOutcome:
    kind: str  # "sat" | "unsat" | "unknown" | "timeout"
    model: Optional[Model] = None
    detail: str = ""


# The standalone command of the bundled solver; a config naming it runs the
# solver in this process instead.
_BUNDLED_ARGV = (sys.executable, "-m", "cedar_engine.minisolver")


@dataclass(frozen=True)
class SolverConfig:
    argv: tuple
    timeout_ms: int = 60000

    def __post_init__(self):
        if self.timeout_ms <= 0:
            raise ValueError("timeout must be positive")

    @property
    def in_process(self) -> bool:
        """Whether this is the bundled solver, which runs in this process."""
        return tuple(self.argv) == _BUNDLED_ARGV

    @staticmethod
    def bundled(timeout_ms: int = 60000) -> "SolverConfig":
        return SolverConfig(_BUNDLED_ARGV, timeout_ms)

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


def run_solver(config: SolverConfig, script) -> SolverOutcome:
    """Hand the script to the solver and classify the response.

    `script` is SMT-LIB text, or the commands of `script_commands`, which
    only the bundled solver takes: it solves the assertion terms without a
    round trip through text.  The bundled solver runs in this process,
    under a deadline checked inside its CDCL loop; any other solver is
    spawned, and the child is always reaped.  Past the timeout the outcome is `timeout`.
    A `sat` answer is followed by the model read from the same response.
    """
    script = script + "(get-model)\n" if isinstance(script, str) else [*script, ("get-model",)]
    response = _run_bundled(script, config.timeout_ms) if config.in_process else _run_child(config, script)
    if response is None:
        return SolverOutcome("timeout", detail=f"exceeded {config.timeout_ms} ms")
    out, stderr, status = response
    replies = _replies(out) if isinstance(out, str) else out
    if not replies:
        raise SolverFailure(f"solver produced no answer ({status}):\n{out}\n{stderr}")
    if replies[0] == "unsat":
        return SolverOutcome("unsat")
    if replies[0] == "unknown":
        return SolverOutcome("unknown", detail=stderr.strip() or "solver returned unknown")
    model = replies[1]
    return SolverOutcome("sat", model=Model.parse(model) if isinstance(model, str) else Model.of(model))


def _replies(stdout: str) -> list:
    """The first answer line of a solver's output and the text after it."""
    lines = stdout.splitlines(keepends=True)
    for i, line in enumerate(lines):
        if line.strip() in ("sat", "unsat", "unknown"):
            return [line.strip(), "".join(lines[i + 1 :])]
    return []


def _run_bundled(script, timeout_ms: int) -> Optional[tuple]:
    """(replies, stderr, status) of the bundled solver, as
    `Session.run_commands` gives them, or None past the deadline.  Imported
    here, so that only analysis loads the solver."""
    from .minisolver import Session
    from .sat import Timeout

    session, err = Session(time.monotonic() + timeout_ms / 1000.0), io.StringIO()
    try:
        replies = session.run(script, io.StringIO(), err) if isinstance(script, str) else session.run_commands(script, err)
    except Timeout:
        return None
    except Exception as exc:  # a crash of the solver, as a crashed child would be
        raise SolverFailure(f"bundled solver failed: {type(exc).__name__}: {exc}") from None
    return replies, err.getvalue(), "in-process"


def _run_child(config: SolverConfig, payload: str) -> Optional[tuple]:
    """(stdout, stderr, status) of a solver child process, or None past the
    timeout, with the child killed and reaped."""
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
        return None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return stdout, stderr, f"exit {proc.returncode}"
