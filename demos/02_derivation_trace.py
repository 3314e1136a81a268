"""Search for a derivation of a target word and replay it step by step.

``find_derivation`` searches over the same component activations as the
enumerator and keeps a parent pointer per form. Once the target is reached
it rebuilds the rule applications of the activations on the found path only,
so a successful search returns a trace: which component was activated,
which rule was applied at which position, and the resulting form.
``replay_trace`` re-executes every application independently and raises if
any recorded step is inconsistent, so a trace doubles as a checkable
certificate. ``None`` means the search within the bounds was exhaustive; a
search cut by a budget raises ``BudgetExceeded`` instead.
"""

import pathlib

from rrw import Mode, StepBounds, find_derivation, format_word, parse_system, replay_trace

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def main():
    system = parse_system((CORPUS / "ocdgs_example1.rrw").read_text())
    mode = Mode.parse("t")
    bounds = StepBounds(workspace=16)

    target = ("a",) * 8
    trace = find_derivation(system, mode, target, bounds)
    print(f"derivation of {format_word(target)} under mode t:")
    print(f"  {format_word(trace.start)}")
    for step in trace.steps:
        applied = ", ".join(
            f"rule {idx} at {pos}" for (idx, pos) in step.applications
        )
        print(f"  ={step.component}=> {format_word(step.result)}   ({applied})")

    final = replay_trace(system, trace)
    print(f"replay reproduces the target: {final == target}")

    missing = find_derivation(system, mode, ("a",) * 6, bounds)
    print(f"aaaaaa derivable: {missing is not None} "
          "(six is not a power of two)")


if __name__ == "__main__":
    main()
