"""Every function, class, method and module-level name of `src/confein` is
reached from a command, or `ROLES` names it as a test oracle or a product.

The pass reads `src/confein/*.py` with `ast`.  Its defs are the module-level
functions and classes, the methods of those classes, and the names a
module-level assignment binds (`X = ...`, `A, B = ...`, `X: T = ...`),
dunders such as `__all__` excepted; a nested function belongs to the def
around it.  Its roots are `cli.main`, the other top-level statements of
every module (an import names no def), and the entries of `ROLES`.  A
reached def reaches every def named by a `Name` id or an `Attribute` attr
in its body, its decorators, defaults and annotations; a reached class
also reaches its bases and class-level statements, and the dunder methods
Python calls itself; a reached assignment reaches what its value reads,
so a module-level name is reached only when reached code reads it.  An
operator reaches the dunders it calls (`+` reaches `__add__`, `__radd__`
and `__iadd__`).

The limit: names are resolved by name only, never by type or module, so
the pass over-approximates.  A method is reached when any reached code
reads an attribute of its name, whatever the object, and every `+` in
reached code reaches `Expr.__add__`.  So the pass can miss dead code, but
it never flags live code, as long as no def is looked up by a string
(`getattr(obj, "name")`), which `src` does not do.  It runs in about a
tenth of a second."""

import ast
import functools
import pathlib

import confein

SRC = pathlib.Path(confein.__file__).parent

# The defs no command reaches, each kept for one role: the oracle a
# numeric path of the decision is tested against, or a product of the
# paper that the tests check but no command prints.
ROLES = {
    # oracles
    "evaluate.evaluate":
        "oracle of `run_batch`: direct recursion on one expression at one "
        "point",
    "obstructions._left_inverse":
        "oracle of the (D, Q) pairs of `k_field`: the whole left inverse Dt "
        "of each policy and the determinant it divides by",
    "obstructions.dual_candidate_jet":
        "oracle of K = Q / D: Dt as a jet, contracted with A in the tests",
    "obstructions.conformal_einstein_tensor_verdict":
        "oracle of `classify`'s chunked tensor verdict: both halves on one "
        "batch, keeping every residual tensor",
    "genericity._symmetric_system":
        "oracle of `_pair_symmetric_system` and `_weyl_symmetric_system`: "
        "the symmetric system of a 4-index tensor, unpacked",
    "tractor.cov_omega_values":
        "oracle of the rank stack of `rank_rows`: nabla Omega by the "
        "coupled connection, whose rank the reduced stack keeps",
    "tractor.div_omega_closed":
        "oracle of `div_omega_values`: the closed form of div Omega from "
        "the Cotton and Bach tensors",
    "curvature.cotton_transform_check":
        "oracle of the ladder's A, P and C: their conformal transformation "
        "rules between two samples",
    "curvature.CurvaturePack.bach":
        "oracle of the ladder (`CurvatureSamples`): the symbolic curvature, "
        "Riemann through Bach, with nabla P and nabla A",
    "catalog.CatalogEntry.expect":
        "oracle of `classify`'s verdicts: the recorded truth of a catalog "
        "entry",
    # products
    "geometry.coframe_components":
        "product: tensor components in an orthonormal coframe, as the paper "
        "gives its Robinson-Trautman example",
    "tractor.tractor_connection":
        "product: the symbolic tractor calculus, the tractor connection",
    "tractor.change_scale":
        "product: the symbolic tractor calculus, the change of scale",
    "tractor.einstein_candidate":
        "product: the symbolic tractor calculus, I = (1/n) D sigma",
    "tractor.omega":
        "product: the symbolic tractor calculus, the tractor curvature Omega",
    "tractor.lower_tractor_slot":
        "product: the symbolic tractor calculus, lowering by the tractor "
        "metric",
    "tractor.annihilation_check":
        "product: the paper's conditions on a parallel tractor I, Omega I = "
        "(nabla Omega) I = (div Omega) I = W I = 0, at sample points",
    "obstructions.cotton_scale_verdict":
        "product: the paper's Cotton-scale theorem (conformal to a C-space) "
        "on one batch of points",
    "obstructions.decide_cotton_verdict":
        "product: the paper's Cotton-scale theorem, decided on chunked "
        "measurements",
    "obstructions.cotton_rl2_invariant":
        "product: the paper's Riemannian-signature replacement of F1 "
        "(rl2-cotton, and dim4-cotton at n = 4)",
}

# the operators whose dunders a reached operator node calls
_OPERATORS = {ast.Add: "add", ast.Sub: "sub", ast.Mult: "mul",
              ast.Div: "truediv", ast.FloorDiv: "floordiv", ast.Mod: "mod",
              ast.Pow: "pow", ast.MatMult: "matmul", ast.USub: "neg",
              ast.UAdd: "pos", ast.Invert: "invert"}
_OPERATOR_DUNDERS = {f"__{p}{op}__" for op in _OPERATORS.values()
                     for p in ("", "r", "i")}


def _names(nodes):
    """The names the nodes read: `Name` ids, `Attribute` attrs and the
    dunders of their operators."""
    out = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.UnaryOp)):
                op = _OPERATORS.get(type(node.op))
                if op:
                    out |= {f"__{op}__", f"__r{op}__", f"__i{op}__"}
    return out


def _bound(stmt):
    """The names a module-level assignment of plain names binds, dunders
    excepted; empty for any other statement."""
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        targets = [stmt.target]
    else:
        return []
    names = [n for t in targets
             for n in (t.elts if isinstance(t, ast.Tuple) else [t])]
    if not all(isinstance(n, ast.Name) for n in names):
        return []
    return [n.id for n in names
            if not (n.id.startswith("__") and n.id.endswith("__"))]


@functools.cache
def _program():
    """(defs, names the module top levels read): defs maps
    "module.name" and "module.Class.method" to (the names the def reads,
    its non-blank, non-comment line count)."""
    defs, top = {}, set()

    def add(qual, node, reads, source):
        lines = source[node.lineno - 1
                       - len(getattr(node, "decorator_list", ())):
                       node.end_lineno]
        defs[qual] = (reads, sum(1 for ln in lines if ln.strip()
                                 and not ln.strip().startswith("#")))

    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        source, mod = text.splitlines(), path.stem
        for stmt in ast.parse(text).body:
            if isinstance(stmt, ast.FunctionDef):
                add(f"{mod}.{stmt.name}", stmt, _names([stmt]), source)
            elif isinstance(stmt, ast.ClassDef):
                methods = [s for s in stmt.body
                           if isinstance(s, ast.FunctionDef)]
                reads = _names([s for s in stmt.body if s not in methods]
                               + stmt.bases + stmt.keywords
                               + stmt.decorator_list)
                reads |= {m.name for m in methods if m.name.startswith("__")
                          and m.name not in _OPERATOR_DUNDERS}
                add(f"{mod}.{stmt.name}", stmt, reads, source)
                for m in methods:
                    add(f"{mod}.{stmt.name}.{m.name}", m, _names([m]),
                        source)
            elif _bound(stmt):
                for name in _bound(stmt):
                    add(f"{mod}.{name}", stmt, _names([stmt.value]), source)
            else:
                top |= _names([stmt])
    return defs, frozenset(top)


def _reached(roots):
    defs, _ = _program()
    named = {}
    for qual in defs:
        named.setdefault(qual.rsplit(".", 1)[1], []).append(qual)
    seen, todo = set(), list(roots)
    while todo:
        qual = todo.pop()
        if qual not in seen:
            seen.add(qual)
            todo += [q for name in defs[qual][0] for q in named.get(name, ())]
    return seen


@functools.cache
def _from_commands():
    defs, top = _program()
    return frozenset(_reached(
        ["cli.main"] + [q for q in defs if q.rsplit(".", 1)[1] in top]))


def test_every_def_is_reached_or_has_a_role():
    defs, _ = _program()
    live = _from_commands() | _reached(q for q in ROLES if q in defs)
    dead = sorted(q for q in defs if q not in live)
    assert not dead, "reached by no command and given no role in ROLES:\n" + \
        "\n".join(f"  {q} ({defs[q][1]} lines)" for q in dead)


def test_every_role_names_a_def():
    defs, _ = _program()
    assert sorted(set(ROLES) - set(defs)) == []


def test_no_role_is_reached_by_a_command():
    assert sorted(set(ROLES) & _from_commands()) == []


def test_every_role_is_an_oracle_or_a_product():
    bad = {q: r for q, r in ROLES.items()
           if not r.startswith(("oracle of ", "product: "))}
    assert not bad
