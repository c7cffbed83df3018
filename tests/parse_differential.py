"""A differential test of the parser: the same inputs parsed by two checkouts.

Three steps, from the repository root:

    PYTHONPATH=src python tests/parse_differential.py corpus CORPUS [MUTANTS]
    PYTHONPATH=A/src python tests/parse_differential.py parse CORPUS A.out
    PYTHONPATH=B/src python tests/parse_differential.py parse CORPUS B.out
    python tests/parse_differential.py compare A.out B.out

`corpus` writes the inputs, one JSON `[kind, text]` a line, kind being
`policies`, `schema` or `expr`: every fixture `.cedar` and `.cedarschema`
file, 300 rendered generated policy sets, 99 generated schemas, a few
expressions, and MUTANTS (default 180,000) mutants of those, each made by up
to three random cuts, copies and insertions of list punctuation and keywords.
All of it is drawn from fixed seeds.  `parse` writes one JSON row an input:
`["ok", repr of the AST]` or `["err", message, start, end]` of its
ParseError (`["crash", ...]` for any other exception), and prints the SHA-256
of the rows.  Run it under a fixed `PYTHONHASHSEED`: a schema's parents are
a frozenset, so their repr follows the seed.  `compare` counts the rows that
differ, by the first words of their messages, and prints the first few.
"""

import hashlib
import json
import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_NAMES = ["A", "B", "Ns::C", "User", "Team", "Org"]
_ACTIONS = ["read", "write", '"del ete"', "admin"]
_ATTRS = ["a", "b", "c", '"d e"']
_INSERTS = [",", ",", "[", "]", "{", "}", ":", "?", "?principal", "?resource", "?foo", " in ", '"a"', "x", ";",
            "::", "(", ")", " appliesTo ", "principal", "context", "resource", '@id("p")', ", ]", ", }", "[]", "{}",
            ",,", " a: 1", " entity ", " action ", "when", "unless", "==", "&&", "!", "-", "if ", "has", "like"]
_EXPRS = ["[1, 2, 3,]", '{a: 1, "b c": [], d: {},}', "[]", "{}", '?principal in [User::"a",]', 'context has "x y"',
          "{a: 1, a: 2}", "[,]", "{,}", 'User::"a" in [Team::"t", Org::"o"]']


def _schema(rng: random.Random) -> str:
    def listed(items, trailing):
        return ", ".join(items) + ("," if trailing and items else "")

    def names(pool):
        items = rng.sample(pool, rng.randint(1, min(3, len(pool))))
        if len(items) == 1 and rng.random() < 0.5:
            return items[0]
        return "[" + listed(items, rng.random() < 0.3) + "]"

    def record(depth):
        attrs = [f"{rng.choice(_ATTRS)}{rng.choice(['', '?'])}: {type_(depth)}" for _ in range(rng.randint(0, 3))]
        return "{" + listed(attrs, rng.random() < 0.3) + "}"

    def type_(depth):
        r = rng.randrange(6 if depth < 3 else 3)
        if r == 0:
            return rng.choice(["Long", "String", "Bool", "Boolean"])
        if r in (1, 2):
            return rng.choice(_NAMES)
        return f"Set<{type_(depth + 1)}>" if r == 3 else record(depth + 1)

    types = rng.sample(_NAMES, rng.randint(1, len(_NAMES)))
    decls = []
    for t in types:
        in_ = " in " + names(_NAMES) if rng.random() < 0.5 else ""
        decls.append(f"entity {t}{in_}" + (" " + record(0) if rng.random() < 0.6 else "") + ";")
    for a in rng.sample(_ACTIONS, rng.randint(1, len(_ACTIONS))):
        decl = f"action {a}" + (" in " + names(_ACTIONS) if rng.random() < 0.4 else "")
        if rng.random() < 0.8:
            keys = rng.sample(["principal", "resource", "context"], rng.randint(1, 3))
            fields = [f"{k}: " + (record(0) if k == "context" else names(types)) for k in keys]
            decl += " appliesTo {" + listed(fields, rng.random() < 0.3) + "}"
        decls.append(decl + ";")
    return "\n".join(decls) + "\n"


def corpus(path: str, mutants: int) -> None:
    from cedar_engine.parser import render_policies
    from cedar_engine.testkit import GenConfig, gen_policies

    seeds = []
    for dirpath, _, files in sorted(os.walk(os.path.join(ROOT, "fixtures"))):
        for name in sorted(files):
            if name.endswith((".cedar", ".cedarschema")):
                with open(os.path.join(dirpath, name), encoding="utf-8") as f:
                    seeds.append(("schema" if name.endswith("schema") else "policies", f.read()))
    seeds += [("policies", render_policies(gen_policies(GenConfig(seed)))) for seed in range(300)]
    rng = random.Random(27)
    seeds += [("schema", _schema(rng)) for _ in range(99)]
    seeds += [("expr", e) for e in _EXPRS]
    with open(path, "w", encoding="utf-8") as out:
        for kind, text in seeds:
            out.write(json.dumps([kind, text]) + "\n")
        for _ in range(mutants):
            kind, text = rng.choice(seeds)
            for _ in range(rng.randint(1, 3)):
                pos, r = rng.randrange(len(text) + 1), rng.randrange(4)
                if r == 0:
                    text = text[:pos] + text[pos + rng.randint(1, 6) :]
                elif r == 1 and text:
                    i = rng.randrange(len(text))
                    text = text[:pos] + text[i : i + rng.randint(1, 12)] + text[pos:]
                else:
                    text = text[:pos] + rng.choice(_INSERTS) + text[pos:]
            out.write(json.dumps([kind, text]) + "\n")


def parse(corpus_path: str, path: str) -> str:
    from cedar_engine.parser import ParseError, parse_expr, parse_policies, parse_schema

    parsers = {"policies": parse_policies, "schema": parse_schema, "expr": parse_expr}
    digest = hashlib.sha256()
    with open(corpus_path, encoding="utf-8") as inputs, open(path, "w", encoding="utf-8") as out:
        for line in inputs:
            kind, text = json.loads(line)
            try:
                row = ["ok", repr(parsers[kind](text))]
            except ParseError as err:
                row = ["err", err.message, err.start, err.end]
            except Exception as err:  # a parser bug: only ParseError may escape
                row = ["crash", type(err).__name__, str(err)]
            text = json.dumps(row)
            digest.update(text.encode())
            out.write(text + "\n")
    return digest.hexdigest()


def compare(old_path: str, new_path: str, show: int = 5) -> int:
    kinds: dict = {}
    index = -1
    with open(old_path, encoding="utf-8") as old, open(new_path, encoding="utf-8") as new:
        for index, (a, b) in enumerate(zip(old, new)):
            if a == b:
                continue
            rows = json.loads(a), json.loads(b)
            kind = tuple(" ".join([row[0], *str(row[1]).split()[:3]]) if row[0] != "ok" else "ok" for row in rows)
            kinds[kind] = kinds.get(kind, 0) + 1
            if sum(kinds.values()) <= show:
                print(f"row {index}:\n  {a.strip()[:300]}\n  {b.strip()[:300]}")
    print(f"{index + 1} rows, {sum(kinds.values())} differ")
    for (a, b), count in sorted(kinds.items()):
        print(f"  {count:>6}  {a}  ->  {b}")
    return 1 if kinds else 0


if __name__ == "__main__":
    step, *args = sys.argv[1:]
    if step == "corpus":
        corpus(args[0], int(args[1]) if len(args) > 1 else 180_000)
    elif step == "parse":
        print(parse(*args))
    else:
        sys.exit(compare(*args))
