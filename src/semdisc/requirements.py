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
:func:`semdisc.lexicon.read_rows`.

The model's four types are checked tuple types
(:class:`semdisc.lexicon.Checked`) holding only what this format writes:
names, ids and descriptions are non-empty single lines without
surrounding whitespace that UTF-8 can encode, ids hold no ``]``, task ids
are unique in a model, and a goal's direct tasks come before its subgoals.
"""
from __future__ import annotations

import itertools
import re
from pathlib import Path
from typing import NamedTuple

from .lexicon import Checked, check_text, duplicates, has_line_break, loader, read_rows

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


class _TaskRow(NamedTuple):
    id: str
    description: str


class TaskRequirement(Checked, _TaskRow):
    __slots__ = ()

    def __new__(cls, id: str, description: str) -> TaskRequirement:
        _check_line(id, "id")
        _check_line(description, "description")
        if "]" in id:
            raise ValueError(f"field 'id' must not contain ']', got {id!r}")
        return tuple.__new__(cls, (id, description))


class _SubgoalRow(NamedTuple):
    name: str
    tasks: tuple[TaskRequirement, ...]


class Subgoal(Checked, _SubgoalRow):
    __slots__ = ()

    def __new__(cls, name: str, tasks: tuple[TaskRequirement, ...] = ()) -> Subgoal:
        _check_line(name, "name")
        _check_children(tasks, "tasks", TaskRequirement)
        return tuple.__new__(cls, (name, tasks))


class _GoalRow(NamedTuple):
    name: str
    tasks: tuple[TaskRequirement, ...]
    subgoals: tuple[Subgoal, ...]


class Goal(Checked, _GoalRow):
    """A goal's direct tasks, then its subgoals, in file order."""

    __slots__ = ()

    def __new__(
        cls, name: str, tasks: tuple[TaskRequirement, ...] = (), subgoals: tuple[Subgoal, ...] = ()
    ) -> Goal:
        _check_line(name, "name")
        _check_children(tasks, "tasks", TaskRequirement)
        _check_children(subgoals, "subgoals", Subgoal)
        return tuple.__new__(cls, (name, tasks, subgoals))


class _ModelRow(NamedTuple):
    goals: tuple[Goal, ...]


class RequirementsModel(Checked, _ModelRow):
    __slots__ = ()

    def __new__(cls, goals: tuple[Goal, ...] = ()) -> RequirementsModel:
        _check_children(goals, "goals", Goal)
        self = tuple.__new__(cls, (goals,))
        repeated = duplicates(t.id for t in tasks(self))
        if repeated:
            raise ValueError(f"duplicate task id {', '.join(map(repr, repeated))}")
        return self


def tasks(model: RequirementsModel) -> list[TaskRequirement]:
    """All tasks of the model, depth-first in file order."""
    return [t for goal in model.goals for scope in (goal, *goal.subgoals) for t in scope.tasks]


@loader
def parse_requirements(path: Path) -> RequirementsModel:
    """Parse an outline file into a requirements model.

    An unknown directive, an ``[id]`` on a goal or subgoal, a subgoal or
    task outside any goal, or a value the model's constructors reject is
    an error naming the line.  Duplicate task ids are an error naming the
    ids.  A file without goals yields an empty model.
    """
    # Per goal: the Goal, its direct tasks, and (Subgoal, tasks) pairs.
    goals: list[tuple[Goal, list, list]] = []
    auto_ids = itertools.count(1)

    def row(line: str) -> None:
        parsed = _LINE.match(line.strip())
        if parsed is None:
            raise ValueError("expected 'goal:', 'subgoal:' or 'task:'")
        # Stripping the line and \s* leave whitespace around an id only.
        kind, task_id, text = parsed.group(1, "id", "text")
        if task_id is not None and kind != "task":
            raise ValueError("only tasks take an [id]")
        if kind == "goal":
            goals.append((Goal(text), [], []))
        elif not goals:
            raise ValueError(f"{kind} outside any goal")
        elif kind == "subgoal":
            goals[-1][2].append((Subgoal(text), []))
        else:
            # A task joins the goal's last subgoal, or the goal if it has none.
            _, direct, subs = goals[-1]
            task_id = f"t{next(auto_ids)}" if task_id is None else task_id.strip()
            (subs[-1][1] if subs else direct).append(TaskRequirement(task_id, text))

    read_rows(path, row)
    return RequirementsModel(tuple(
        Goal(goal.name, tuple(direct), tuple(Subgoal(s.name, tuple(t)) for s, t in subs))
        for goal, direct, subs in goals
    ))


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
