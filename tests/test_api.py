import ast
import importlib
import inspect
import re
from pathlib import Path

import regime_extract as rx
from regime_extract import mcsim

# Parameter names of every public callable that has a signature. Each
# tolerance is a module constant at its one place of use, not a keyword:
# a new parameter has to be added here on purpose.
PINNED_SIGNATURES = {
    "AssumptionReport": ("a5_le_1", "cond2", "cond3", "cond4", "assm2",
                         "lemma_signs", "all_ok", "case_b", "values"),
    "AssumptionViolated": ("message", "report", "swapped_report"),
    "Characteristic": ("disc", "beta1", "beta2", "alpha3", "alpha4", "alpha5",
                       "a1", "a2", "a3", "a4"),
    "ControlSolution": ("stopping",),
    "CostFunction": ("kind", "gamma", "alpha", "beta", "f", "fprime"),
    "ModelParams": ("rho", "sigma1", "sigma2", "lambda1", "lambda2", "c",
                    "cost"),
    "NonPositiveParameter": ("field", "value"),
    "OrderingViolated": ("message", "x"),
    "Policy": ("kind", "bfun"),
    "SRPViolated": ("message", "step", "path"),
    "SimConfig": ("dt", "horizon", "n_paths", "base_seed", "antithetic",
                  "batch_pairs"),
    "SimOutcome": ("mean", "std_error", "n_paths", "tail_bound", "policy_id",
                   "dt", "horizon"),
    "StoppingSolution": ("case", "z1", "z2", "zhat2", "relabeled", "params",
                         "iparams", "roots", "g1_residual", "g2_residual",
                         "m1_at_0", "m2_at_0"),
    "Trace": ("t", "regime", "X", "Y", "dnu", "disc_inc", "dt", "policy_id",
              "switches"),
    "U": ("cs", "x", "y", "i"),
    "U_report": ("cs", "x", "y", "i"),
    "U_x": ("cs", "x", "y", "i"),
    "U_xx": ("cs", "x", "y", "i"),
    "ValueReport": ("U", "Uy", "Ux", "Uxx", "hjb_residual"),
    "VerificationFailed": ("message", "report"),
    "b_sharp": ("params", "sigma", "x"),
    "b_star": ("cs", "i", "x"),
    "chat": ("params", "y"),
    "check_assumptions": ("params", "eps"),
    "compare_boundaries": ("cs", "n", "x_range"),
    "estimate_value": ("cs", "x0", "y0", "i0", "policy", "cfg"),
    "feasibility_scan": ("rho", "lambda1", "lambda2", "sigma1_grid",
                         "sigma2_grid"),
    "from_stopping": ("sol",),
    "g1": ("params", "roots", "u", "v"),
    "g2": ("params", "roots", "u", "v"),
    "m1": ("params", "roots", "v"),
    "m2": ("params", "roots", "v"),
    "params_from_config": ("cfg",),
    "phi": ("params", "i", "alpha"),
    "simulate_traces": ("cs", "x0", "y0", "i0", "policy", "cfg", "n_paths"),
    "single_regime_boundary": ("params", "sigma", "y"),
    "skorokhod_check": ("cs", "trace"),
    "solve_characteristic": ("params",),
    "solve_control": ("params",),
    "solve_z": ("params",),
    "trace_to_csv": ("trace", "path", "path_index"),
    "v": ("sol", "x", "i", "y"),
    "validate": ("rho", "sigma1", "sigma2", "lambda1", "lambda2", "c",
                 "cost"),
    "verify_fbp": ("sol", "y", "n_points", "grid"),
    "verify_hjb": ("cs", "nx", "ny", "perturbation"),
    "w": ("sol", "x", "i", "y"),
    "w_x": ("sol", "x", "i", "y"),
    "w_xx": ("sol", "x", "i", "y", "side"),
    "x_star": ("sol", "i", "y"),
    "zhat2": ("params", "roots"),
}


def _signatures():
    out = {}
    for name in rx.__all__:
        obj = getattr(rx, name)
        if not callable(obj):
            continue
        try:
            out[name] = tuple(inspect.signature(obj).parameters)
        except ValueError:   # exceptions that keep Exception's own init
            continue
    return out


def test_public_signatures_pinned():
    assert _signatures() == PINNED_SIGNATURES


README = Path(__file__).resolve().parent.parent/"README.md"
# a `NAME` = value pair, or the (`module`) tag that closes its group
_CONSTANT = re.compile(r"`([A-Z][A-Z0-9_]*)` = ([0-9][0-9.e+-]*)"
                       r"|\(`([a-z_]+)`\)")


def _readme_constants():
    """(name, value, module) of every pair in README's list of module
    constants: each pair belongs to the first module tag after it in its
    bullet."""
    text = README.read_text()
    start = text.index("Every tolerance and size cap is")
    block = text[start:text.index("\n\n", text.index("\n- ", start))]
    out = []
    for bullet in block.split("\n- ")[1:]:
        pending = []
        for m in _CONSTANT.finditer(" ".join(bullet.split())):
            if m.group(3) is None:
                pending.append(m.group(1, 2))
            else:
                out += [(name, value, m.group(3)) for name, value in pending]
                pending = []
        assert not pending, f"no module tag after {pending}"
    return out


# a module constant with such a name is a tolerance, cap or budget
_NAMED = re.compile(r"MAX_\w+|\w+_(TOL|EPS|BUDGET|MAX_ITER)")


def _module_constants():
    """(name, module) of every name that a module of the package assigns
    at its top level and that _NAMED marks."""
    out = set()
    for path in Path(rx.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            for target in getattr(node, "targets", []):
                out |= {(n.id, path.stem) for n in ast.walk(target)
                        if isinstance(n, ast.Name) and _NAMED.fullmatch(n.id)}
    return out


def test_only_model_reads_the_cost_family():
    """The cost family is decided in model alone: no other module reads a
    cost's kind, alpha, beta or gamma. A Policy's kind (policy.kind, and
    self.kind in Policy) is not a cost's."""
    for path in Path(rx.__file__).parent.glob("*.py"):
        if path.stem == "model":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute)
                    and node.attr in ("kind", "alpha", "beta", "gamma")):
                owner = getattr(node.value, "attr",
                                getattr(node.value, "id", None))
                assert node.attr == "kind" and owner in ("policy", "self"), (
                    f"{path.name}:{node.lineno} reads {owner}.{node.attr}")


def test_only_shift_adds_z2():
    """Every boundary is read as StoppingSolution.shift(k) + chat(y), so
    z1 + z2 is formed in one place: outside shift (and perturbed, which
    moves z2 itself) no package code adds or subtracts a .z2."""
    sites = []
    for path in Path(rx.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        funcs = [node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.BinOp):
                operands, op = (node.left, node.right), node.op
            elif isinstance(node, ast.AugAssign):
                operands, op = (node.target, node.value), node.op
            else:
                continue
            if isinstance(op, (ast.Add, ast.Sub)) and any(
                    isinstance(n, ast.Attribute) and n.attr == "z2"
                    for n in operands):
                # the innermost function that holds it
                owner = min((f for f in funcs if f.lineno <= node.lineno
                             <= f.end_lineno),
                            key=lambda f: f.end_lineno - f.lineno,
                            default=None)
                sites.append((path.stem, getattr(owner, "name", None)))
    assert sorted(sites) == [("stopping", "perturbed"),
                             ("stopping", "shift")]


def test_engine_has_no_policy_kind_fork():
    """Every built-in policy reflects at a price threshold, so
    mcsim._simulate_batch compares no policy kind with a string: it reads
    a kind only as the key of its _CLOSED_FORM entry or as a trace's
    policy_id label."""
    tree = ast.parse(Path(mcsim.__file__).read_text())
    fn = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
              and node.name == "_simulate_batch")
    allowed = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Compare):
            strings = [n.value for side in (node.left, *node.comparators)
                       for n in ast.walk(side) if isinstance(n, ast.Constant)
                       and isinstance(n.value, str)]
            assert not strings, f"mcsim.py:{node.lineno} compares {strings}"
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and getattr(node.func.value, "id", None) == "_CLOSED_FORM"):
            allowed |= set(map(id, node.args))
        elif (isinstance(node, ast.Subscript)
              and getattr(node.value, "id", None) == "_CLOSED_FORM"):
            allowed.add(id(node.slice))
        elif isinstance(node, ast.keyword) and node.arg == "policy_id":
            allowed.add(id(node.value))
    reads = [node for node in ast.walk(fn)
             if isinstance(node, (ast.Attribute, ast.Name))
             and "kind" in (getattr(node, "attr", None),
                            getattr(node, "id", None))]
    assert reads, "_simulate_batch no longer reads the policy kind"
    for node in reads:
        assert id(node) in allowed, (
            f"mcsim.py:{node.lineno} reads the policy kind outside "
            "_CLOSED_FORM")


def test_custom_boundary_forks_only_at_the_projection():
    """A custom boundary reflects at the price threshold -inf, so the
    trigger X > xthr and the threshold upkeep serve every policy. In
    mcsim._simulate_batch each `if` statement that reads `custom` lies
    inside reflect, and outside reflect `custom` is read only where
    shift_tbl is built."""
    tree = ast.parse(Path(mcsim.__file__).read_text())
    fn = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
              and node.name == "_simulate_batch")
    reflect = next(node for node in ast.walk(fn)
                   if isinstance(node, ast.FunctionDef)
                   and node.name == "reflect")
    shift_tbl = next(node for node in ast.walk(fn)
                     if isinstance(node, ast.Assign)
                     and [getattr(t, "id", None) for t in node.targets]
                     == ["shift_tbl"])

    def reads(root):
        return [node for node in ast.walk(root) if isinstance(node, ast.Name)
                and node.id == "custom" and isinstance(node.ctx, ast.Load)]

    inside = set(map(id, ast.walk(reflect)))
    for node in ast.walk(fn):
        if isinstance(node, ast.If) and reads(node.test):
            assert id(node) in inside, (
                f"mcsim.py:{node.lineno} forks on custom outside reflect")
    allowed = inside | set(map(id, ast.walk(shift_tbl)))
    assert reads(shift_tbl) and reads(reflect)
    for node in reads(fn):
        assert id(node) in allowed, (
            f"mcsim.py:{node.lineno} reads custom outside reflect and "
            "shift_tbl")


def test_readme_constants_match_the_code():
    pairs = _readme_constants()
    assert len(pairs) >= 16
    for name, value, module in pairs:
        mod = importlib.import_module(f"regime_extract.{module}")
        assert float(value) == getattr(mod, name), (name, module)
    # and the other way: every such constant is listed, with its module
    listed = {(name, module) for name, _, module in pairs}
    assert _module_constants() - listed == set()
