"""Requirements outline: goals, subgoals, and discoverable tasks.

The outline format is line-oriented::

    goal: Characterize a protein family
      task: Collect known family members
      subgoal: Describe domain architecture
        task: Analyze domains in protein sequences
        task[rank-motifs]: Rank candidate motif instances

``goal:`` opens a goal, ``subgoal:`` a subgoal of the current goal, and
``task:`` attaches to the innermost open scope, so a task written after
a subgoal belongs to it: indentation is cosmetic.  Tasks may carry an
explicit id in brackets; tasks without one are numbered t1, t2, ... in
file order.  Lines are read by the shared rules of
:func:`semdisc.lexicon.record_lines`.

The model holds only what this format writes, and its constructors
check it: names, ids and descriptions are non-empty single lines without
surrounding whitespace that UTF-8 can encode, ids hold no ``]``, task ids
are unique in a model, and a goal's direct tasks come before its subgoals.
"""
from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .lexicon import check_text, has_line_break, record_lines

_LINE = re.compile(r"^(goal|subgoal|task)(?:\[(?P<id>[^\]]+)\])?\s*:\s*(?P<text>.*)$")


def _check_line(value: object, field: str) -> None:
    """ValueError naming ``field`` unless ``value`` is one non-empty line
    by ``str.splitlines``, without surrounding whitespace, that UTF-8 can
    encode."""
    check_text(value, field)
    if not value or has_line_break(value) or value.strip() != value:
        raise ValueError(
            f"field {field!r} must be one non-empty line without surrounding "
            f"whitespace, got {value!r}"
        )


def _check_children(value: object, field: str, kind: type) -> None:
    if type(value) is not tuple or not all(isinstance(v, kind) for v in value):
        raise ValueError(f"field {field!r} must be a tuple of {kind.__name__}")


@dataclass(frozen=True)
class TaskRequirement:
    id: str
    description: str

    def __post_init__(self) -> None:
        _check_line(self.id, "id")
        _check_line(self.description, "description")
        if "]" in self.id:
            raise ValueError(f"field 'id' must not contain ']', got {self.id!r}")


@dataclass(frozen=True)
class Subgoal:
    name: str
    tasks: tuple[TaskRequirement, ...] = ()

    def __post_init__(self) -> None:
        _check_line(self.name, "name")
        _check_children(self.tasks, "tasks", TaskRequirement)


@dataclass(frozen=True)
class Goal:
    """A goal's direct tasks, then its subgoals, in file order."""

    name: str
    tasks: tuple[TaskRequirement, ...] = ()
    subgoals: tuple[Subgoal, ...] = ()

    def __post_init__(self) -> None:
        _check_line(self.name, "name")
        _check_children(self.tasks, "tasks", TaskRequirement)
        _check_children(self.subgoals, "subgoals", Subgoal)


@dataclass(frozen=True)
class RequirementsModel:
    goals: tuple[Goal, ...] = ()

    def __post_init__(self) -> None:
        _check_children(self.goals, "goals", Goal)
        counts = Counter(task.id for task in tasks(self))
        repeated = [task_id for task_id, n in counts.items() if n > 1]
        if repeated:
            raise ValueError(f"duplicate task id {', '.join(map(repr, repeated))}")


def tasks(model: RequirementsModel) -> list[TaskRequirement]:
    """All tasks of the model, depth-first in file order."""
    found: list[TaskRequirement] = []
    for goal in model.goals:
        found.extend(goal.tasks)
        for subgoal in goal.subgoals:
            found.extend(subgoal.tasks)
    return found


def parse_requirements(path: str | Path) -> RequirementsModel:
    """Parse an outline file into a requirements model.

    An unknown directive, an ``[id]`` on a goal or subgoal, a subgoal or
    task outside any goal, or a value the model's constructors reject is
    an error naming the line.  Duplicate task ids are an error naming the
    ids.  A file without goals yields an empty model.
    """
    path = Path(path)
    # Per goal: the Goal, its direct tasks, and (Subgoal, tasks) pairs.
    goals: list[tuple[Goal, list, list]] = []
    open_tasks: list[TaskRequirement] = []  # the innermost open scope's tasks
    auto_counter = 0
    for lineno, line in record_lines(path, path.read_bytes()):
        try:
            parsed = _LINE.match(line.strip())
            if parsed is None:
                raise ValueError("expected 'goal:', 'subgoal:' or 'task:'")
            kind, task_id, text = parsed.group(1, "id", "text")
            if task_id is not None and kind != "task":
                raise ValueError("only tasks take an [id]")
            if kind == "goal":
                open_tasks = []
                goals.append((Goal(text.strip()), open_tasks, []))
            elif not goals:
                raise ValueError(f"{kind} outside any goal")
            elif kind == "subgoal":
                open_tasks = []
                goals[-1][2].append((Subgoal(text.strip()), open_tasks))
            else:
                if task_id is None:
                    auto_counter += 1
                    task_id = f"t{auto_counter}"
                open_tasks.append(TaskRequirement(task_id.strip(), text.strip()))
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
    try:
        return RequirementsModel(tuple(
            Goal(goal.name, tuple(direct), tuple(Subgoal(s.name, tuple(t)) for s, t in subs))
            for goal, direct, subs in goals
        ))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def serialize_requirements(model: RequirementsModel) -> str:
    """Render a model as outline text that parses back to an equal model;
    task ids are always written explicitly."""
    lines: list[str] = []
    for goal in model.goals:
        lines.append(f"goal: {goal.name}")
        lines.extend(f"  task[{t.id}]: {t.description}" for t in goal.tasks)
        for subgoal in goal.subgoals:
            lines.append(f"  subgoal: {subgoal.name}")
            lines.extend(f"    task[{t.id}]: {t.description}" for t in subgoal.tasks)
    return "\n".join(lines) + ("\n" if lines else "")
