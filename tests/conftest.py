import random

import pytest

from archspread.model import (
    ArchitectureSolution,
    SolutionSet,
    TransformationStep,
)


def make_step(name="op0", args=("a0",)):
    return TransformationStep(name, tuple(args))


def make_solution(sol_id, objectives=(0.0,), steps=()):
    return ArchitectureSolution(sol_id, tuple(objectives), tuple(steps))


def make_set(label="s", objective_names=("f0",), solutions=()):
    return SolutionSet(label, tuple(objective_names), tuple(solutions))


def one_solution_bundle(objective: str) -> bytes:
    """Bundle text with one solution whose only objective is the literal ``objective``."""
    return (
        '{"name": "x", "sets": [{"label": "s", "objective_names": ["f0"], "solutions":'
        ' [{"id": "a", "objectives": [' + objective + '], "sequence": []}]}]}'
    ).encode()


def random_set(rng: random.Random, n=None, max_len=4, name_vocab=3, arg_vocab=3, n_obj=2):
    """Random solution set with short sequences; helper for sweep tests."""
    n = n if n is not None else rng.randint(1, 10)
    solutions = []
    for i in range(n):
        steps = tuple(
            TransformationStep(
                f"op{rng.randrange(name_vocab)}",
                tuple(f"e{rng.randrange(arg_vocab)}" for _ in range(rng.randint(0, 2))),
            )
            for _ in range(rng.randint(0, max_len))
        )
        solutions.append(
            ArchitectureSolution(
                f"sol{i}",
                tuple(rng.uniform(-5, 5) for _ in range(n_obj)),
                steps,
            )
        )
    return SolutionSet("rand", tuple(f"f{k}" for k in range(n_obj)), tuple(solutions))


@pytest.fixture
def rng():
    return random.Random(12345)
