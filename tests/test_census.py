"""The CLI-reach census: every function in src/facsec is entered by some `facsec`
run, or the table below names why it is kept.

A fixed matrix of in-process ``cli.main`` calls runs under ``sys.setprofile``,
which records each Python function it enters. Python 3.10 has no
``co_qualname``, so ``ast`` names each code object by its file and first line.
A function no run enters needs an entry in ``UNREACHED``, with one of the
reasons below; an entry for a function some run enters is stale.
"""

import ast
import re
import sys
from pathlib import Path

from facsec import cli

SRC = Path(cli.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
REPO = TESTS.parent
THREE = REPO / "scenarios" / "three_facility.scn"
LOCKIN = REPO / "scenarios" / "lockin.scn"
COMMANDS = ("solve-ne", "solve-spe", "compare", "regimes", "verify", "simulate")
EXTRA = {"regimes": ("--grid", "0:4:7,0:4:9"), "simulate": ("--horizon", "30")}

# Why a function no CLI run enters stays in src/facsec: one of these four, the
# planned caller of a ROADMAP item, or the reference of a named test.
ACCEPTANCE = "imported by tests/test_acceptance.py, or called by what it imports"
PERFBENCH = "called or rebound by perfbench/"
LOOKUP = "the package's facsec.<name> lookup"
ERROR_PATH = "an error path"


def roadmap(item) -> str:
    return f"the planned caller of ROADMAP item {item}"


def reference(test: str) -> str:
    return f"the reference of {test}"


UNREACHED = {
    "facsec.__dir__": LOOKUP,
    "facsec.__getattr__": LOOKUP,
    "facsec.analysis.SweepGrid.__getitem__": PERFBENCH,  # worker.Sweep.check samples cells
    "facsec.analysis.SweepGrid.__getitem__.<locals>.utility": PERFBENCH,
    "facsec.analysis.SweepGrid.__len__": PERFBENCH,
    "facsec.analysis._check_relations.<locals>.fail": ERROR_PATH,
    "facsec.learning.StageRecords.__iter__": PERFBENCH,  # worker.Simulate.check reads records
    "facsec.learning.StageRecords.__len__": PERFBENCH,
    "facsec.learning._Segment.__iter__": PERFBENCH,
    "facsec.learning.stage_step": PERFBENCH,  # tracing.SPAN_POINTS
    "facsec.model.FacilityPartition.bracket": ACCEPTANCE,  # cd_threshold_bar, cd_tilde
    "facsec.model.FacilityPartition.cd_ij": ACCEPTANCE,
    "facsec.model.FacilityPartition.cd_tilde": ACCEPTANCE,
    "facsec.model.FacilityPartition.cd_tilde_inverse": ACCEPTANCE,
    "facsec.normalform.build_attacker_lp": ACCEPTANCE,
    "facsec.normalform.cd_threshold_bar": ACCEPTANCE,
    "facsec.normalform.classify_regime_ne": PERFBENCH,  # tracing.SPAN_POINTS
    "facsec.normalform.ne_utilities": PERFBENCH,
    "facsec.oracle.LinearProgram.__post_init__": ACCEPTANCE,  # build_attacker_lp, simplex_solve
    "facsec.oracle._Tableau.__init__": ACCEPTANCE,
    "facsec.oracle._Tableau.pivot": ACCEPTANCE,
    "facsec.oracle._Tableau.run": ACCEPTANCE,
    "facsec.oracle.simplex_solve": ACCEPTANCE,
    "facsec.oracle.standard_form": ACCEPTANCE,
    "facsec.routing.usage_cost_for_state": roadmap(4),  # costs derived from the network
    "facsec.sequential.cd_threshold_tilde": ACCEPTANCE,
    "facsec.sequential.cd_tilde_inverse": ACCEPTANCE,
    "facsec.sequential.classify_regime_spe": PERFBENCH,  # tracing.SPAN_POINTS
    "facsec.sequential.spe_utilities": PERFBENCH,
}


def defined_functions() -> dict[tuple[str, int, str], str]:
    """Every ``def`` in src/facsec, keyed as its code object is: (file, first line,
    name). A decorated function's code starts at its first decorator."""
    found = {}
    for path in sorted(SRC.glob("*.py")):

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(str(path), first, child.name)] = prefix + child.name
                    visit(child, f"{prefix}{child.name}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        module = "facsec" if path.stem == "__init__" else f"facsec.{path.stem}"
        visit(ast.parse(path.read_text()), f"{module}.")
    return found


def scenarios(tmp_path) -> dict[str, str]:
    """The two shipped scenarios; the three-facility one without [network] and
    [learning]; and its variants: true_state spe and an edge, region M, region H,
    nothing vulnerable, and attack_cost 3, on a level edge."""
    text = THREE.read_text()
    variants = {
        "plain": text[: text.index("[network]")],
        "spe": text.replace("true_state ne", "true_state spe"),
        "edge": text.replace("true_state ne", "true_state e2"),
        "medium": text.replace("defense_cost 0.3", "defense_cost 0.6"),
        "high": text.replace("defense_cost 0.3", "defense_cost 2"),
        "none": text.replace("attack_cost 0.5", "attack_cost 5"),
        "boundary": text.replace("attack_cost 0.5", "attack_cost 3"),
    }
    paths = {"three": str(THREE), "lockin": str(LOCKIN)}
    for name, variant in variants.items():
        path = tmp_path / f"{name}.scn"
        path.write_text(variant)
        paths[name] = str(path)
    return paths


def matrix(tmp_path) -> list[tuple[list[str], int]]:
    """The census's CLI calls, each with the exit code it must give."""
    runs = []
    for name, path in scenarios(tmp_path).items():
        for command in COMMANDS:
            code = 0
            if name == "boundary" and command != "regimes":
                code = 2
            elif name == "plain" and command == "simulate":
                code = 1  # no [learning] section
            runs.append(([command, "--scenario", path, *EXTRA.get(command, ())], code))
    out = str(tmp_path / "out")
    runs += [
        (["solve-ne"], 1),  # usage error: no --scenario
        (["solve-ne", "--scenario", str(tmp_path / "missing.scn")], 1),
        (["verify", "--scenario", str(THREE), "--perturb", "0.02"], 3),
        (["solve-ne", "--scenario", str(THREE), "--out", out], 0),
        (["regimes", "--scenario", str(THREE), "--grid", "0:4:3,0:4:3", "--out", out], 0),
    ]
    return runs


def entered_functions(runs) -> tuple[set, list[int]]:
    """The (file, first line, name) of every function in src/facsec that the runs
    enter, and their exit codes. Any profiler installed before is restored."""
    prefix = str(SRC)
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(prefix):
                entered.add((code.co_filename, code.co_firstlineno, code.co_name))

    codes = []
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for argv, _ in runs:
            codes.append(cli.main(argv))
    finally:
        sys.setprofile(previous)
    return entered, codes


def test_every_unreached_function_has_a_reason(tmp_path, capsys):
    runs = matrix(tmp_path)
    entered, codes = entered_functions(runs)
    capsys.readouterr()
    assert codes == [code for _, code in runs]

    functions = defined_functions()
    unreached = {name for key, name in functions.items() if key not in entered}
    assert sorted(unreached - set(UNREACHED)) == [], "unreached, with no reason"
    assert sorted(set(UNREACHED) - unreached) == [], "reached, or no longer defined"


def test_every_reason_is_an_allowed_one():
    tests = "".join(path.read_text() for path in TESTS.glob("test_*.py"))
    for name, reason in UNREACHED.items():
        named = re.fullmatch(reference(r"(test_\w+)"), reason)
        assert (
            reason in (ACCEPTANCE, PERFBENCH, LOOKUP, ERROR_PATH)
            or re.fullmatch(roadmap(r"\d+"), reason)
            or (named and f"def {named[1]}(" in tests)
        ), (name, reason)
