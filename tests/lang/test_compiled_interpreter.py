"""The compiled interpreter against the reference tree-walker.

``repro.lang.interpreter`` lowers each handler to closures once;
``_reference_interpreter`` is the walker it replaced, kept here as the
oracle.  Random handlers (nested ``If``/``While``, short-circuit logic,
library calls, sends under tainted control) are driven through both with
identical message streams; everything observable must match — emitted
messages including ``cause_uids``, final values and provenance, and all
five ``HandlerOutcome`` counters — in every tracking mode.
"""

import random

import pytest

from repro.errors import InterpreterError, IRError
from repro.lang.interpreter import Interpreter, ReplicaState
from repro.lang.ir import (
    CLIENT,
    EXTERNAL,
    Assign,
    BinOp,
    Call,
    Component,
    Const,
    Field,
    Handler,
    If,
    Send,
    Skip,
    UnaryOp,
    Var,
    While,
    default_library,
)
from repro.lang.message import Message, MessageUid, UidFactory

from tests.lang._reference_interpreter import ReferenceInterpreter

STATE = {"a": 0, "b": 3, "c": 10, "acc": 0}
LOCALS = ("t", "u")
FIELDS = ("x", "y", "flag")
MSG_TYPES = ("m0", "m1", "m2")
_ARITH = ("+", "-", "*", "min", "max")
_COMPARE = (">", ">=", "<", "<=", "==", "!=")


class _HandlerGen:
    """Seeded generator of well-formed, terminating handler bodies."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.loop_vars = 0

    def number(self, depth, defined):
        rng = self.rng
        roll = rng.random()
        if depth <= 0 or roll < 0.3:
            kind = rng.choice(("const", "var", "field"))
            if kind == "const":
                return Const(rng.randint(-4, 9))
            if kind == "var":
                return Var(rng.choice(sorted(STATE) + sorted(defined)))
            return Field("m", rng.choice(FIELDS[:2]))
        if roll < 0.7:
            return BinOp(
                rng.choice(_ARITH), self.number(depth - 1, defined), self.number(depth - 1, defined)
            )
        if roll < 0.8:
            # Non-zero constant divisor: division errors have their own tests.
            return BinOp(
                rng.choice(("%", "//")), self.number(depth - 1, defined), Const(rng.randint(2, 7))
            )
        if roll < 0.9:
            return Call(rng.choice(("max", "min")), self.number(depth - 1, defined), rng.randint(0, 5))
        return UnaryOp("-", self.number(depth - 1, defined))

    def condition(self, depth, defined):
        rng = self.rng
        roll = rng.random()
        if depth <= 0 or roll < 0.5:
            return BinOp(rng.choice(_COMPARE), self.number(1, defined), self.number(1, defined))
        if roll < 0.85:
            return BinOp(
                rng.choice(("and", "or")),
                self.condition(depth - 1, defined),
                self.condition(depth - 1, defined),
            )
        if roll < 0.95:
            return UnaryOp("not", self.condition(depth - 1, defined))
        return Field("m", "flag")

    def send(self, defined):
        rng = self.rng
        fields = {
            f"f{i}": self.number(2, defined) for i in range(rng.randint(0, 3))
        }
        return Send(rng.choice(("out", "reply")), rng.choice((CLIENT, "peer")), fields)

    def block(self, depth, defined, size=None):
        rng = self.rng
        out = []
        for _ in range(size if size is not None else rng.randint(1, 4)):
            roll = rng.random()
            if roll < 0.4:
                target = rng.choice(sorted(STATE) + list(LOCALS))
                out.append(Assign(target, self.number(2, defined)))
                if target in LOCALS:
                    defined = defined | {target}
            elif roll < 0.6:
                out.append(self.send(defined))
            elif roll < 0.8 and depth > 0:
                # Locals assigned in one branch only are not defined after it.
                out.append(
                    If(
                        self.condition(2, defined),
                        self.block(depth - 1, defined),
                        self.block(depth - 1, defined) if rng.random() < 0.6 else (),
                    )
                )
            elif roll < 0.93 and depth > 0:
                self.loop_vars += 1
                counter = f"i{self.loop_vars}"
                out.append(Assign(counter, 0))
                inner = defined | {counter}
                bound = self.number(1, inner) if rng.random() < 0.5 else Const(rng.randint(0, 3))
                body = self.block(depth - 1, inner) + [Assign(counter, Var(counter) + 1)]
                out.append(While((Var(counter) < bound).and_(Var(counter) < 4), body))
                defined = inner
            else:
                out.append(Skip())
        return out


def _random_component(seed: int) -> Component:
    rng = random.Random(seed)
    handlers = []
    for msg_type in MSG_TYPES:
        gen = _HandlerGen(rng)
        # Every handler feeds the ``acc`` accumulator first and ends in a
        # send that reads it, so every invocation emits and the tracked
        # modes run past the provenance cap within a few messages.
        last = gen.send(frozenset())
        last.fields["acc"] = Var("acc")
        body = (
            [Assign("acc", Var("acc") % 1000 + Field("m", "y"))]
            + gen.block(2, frozenset(), size=rng.randint(2, 6))
            + [last]
        )
        handlers.append(Handler(msg_type, "m", body))
    return Component("comp", STATE, handlers)


def _message_stream(seed: int, count: int):
    rng = random.Random(seed * 7919 + 1)
    # Several senders, so the provenance cap orders uids across addresses
    # ("10.0.0.10" sorts before "10.0.0.9") and process ids, not only by seq.
    senders = [UidFactory("10.0.0.9", 2), UidFactory("10.0.0.10", 1), UidFactory("10.0.0.10", 3)]
    for _ in range(count):
        uid = rng.choice(senders).next_uid()
        yield Message(
            uid=uid,
            msg_type=rng.choice(MSG_TYPES),
            src=EXTERNAL,
            dest="comp",
            fields={"x": rng.randint(-3, 12), "y": rng.randint(0, 5), "flag": rng.random() < 0.5},
            root_uid=uid if rng.random() < 0.5 else None,
            sampled=rng.random() < 0.75,
        )


def _outcome_fields(outcome):
    return (
        outcome.emitted,
        outcome.tracked_writes,
        outcome.total_writes,
        outcome.getinfo_ops,
        outcome.statements_executed,
    )


MODES = {
    "plain": dict(tracked_vars=None),
    "tracked": dict(tracked_vars={"a", "acc"}),
    "track-none": dict(tracked_vars=set()),
    "track-all": dict(track_all=True),
}


def _run_both(seed, mode):
    """Drive both interpreters; assert step-wise equality; return the sends."""
    # Two structurally identical components (the generator is seeded), so
    # neither implementation can lean on the other's statement objects.
    kwargs = dict(MODES[mode], max_provenance=5)
    compiled = Interpreter(_random_component(seed), default_library(), **kwargs)
    reference = ReferenceInterpreter(_random_component(seed), default_library(), **kwargs)
    state_c = ReplicaState.from_component(compiled.component)
    state_r = ReplicaState.from_component(reference.component)
    uids_c = UidFactory("10.0.0.1", 1)
    uids_r = UidFactory("10.0.0.1", 1)
    emitted = []
    for message in _message_stream(seed, 60):
        got = compiled.handle(state_c, message, uids_c)
        want = reference.handle(state_r, message, uids_r)
        assert _outcome_fields(got) == _outcome_fields(want), (seed, mode, message)
        assert state_c == state_r, (seed, mode, message)
        emitted.extend(got.emitted)
    assert len(emitted) >= 60  # sampled or not, every invocation sends
    return emitted, state_c


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("seed", range(25))
def test_compiled_matches_reference(seed, mode):
    emitted, state = _run_both(seed, mode)
    if mode == "plain":
        assert not any(m.cause_uids for m in emitted) and not state.provenance


def test_differential_streams_reach_the_cap_and_mix_senders():
    """The comparison above is not vacuous: caps engage, orders are exercised."""
    capped = mixed = 0
    for seed in range(25):
        emitted, _ = _run_both(seed, "tracked")
        capped += any(len(m.cause_uids) == 5 for m in emitted)
        mixed += any(len({u.address for u in m.cause_uids}) > 1 for m in emitted)
    assert capped >= 20 and mixed >= 20


def test_generator_exercises_every_construct():
    seen = set()
    for seed in range(25):
        for handler in _random_component(seed).handlers.values():
            for stmt in handler.walk():
                seen.add(type(stmt).__name__)
                if isinstance(stmt, (If, While)):
                    seen.add(f"cond:{stmt.cond.op}" if isinstance(stmt.cond, BinOp) else "cond")
    assert {"Assign", "If", "While", "Send", "Skip", "cond:and"} <= seen


# -- error parity ---------------------------------------------------------------


def _failing_library():
    library = default_library()
    library.register("boom", lambda x: 1 // 0)
    return library


ERROR_CASES = {
    "undefined-variable": ([Assign("a", Var("ghost"))], "read of undefined variable 'ghost'"),
    "unknown-parameter": ([Assign("a", Field("other", "x"))], "unknown message parameter 'other'"),
    "missing-field": ([Assign("a", Field("m", "nope"))], "message 'go' has no field 'nope'"),
    "loop-bound": ([While(Const(True), [Skip()])], "comp.go: loop exceeded 10 iterations"),
    "division-by-zero": ([Assign("a", Field("m", "x") / Var("a"))], "division by zero in"),
    "floor-division-by-zero": ([Assign("a", BinOp("//", Const(1), Const(0)))], "division by zero in"),
    "modulo-by-zero": ([Assign("a", Field("m", "x") % 0)], "modulo by zero in"),
    "library-failure": ([Assign("a", Call("boom", 1))], r"library call boom\(\[1\]\) failed"),
    "not-a-number": ([Assign("a", Const("s") * 2)], "expected a number in"),
    "negated-string": ([Assign("a", UnaryOp("-", Const("s")))], "expected a number in"),
    "error-under-send": (
        [Send("out", CLIENT, {"ok": Const(1), "bad": Var("ghost")})],
        "read of undefined variable",
    ),
}


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_error_parity(case):
    body, pattern = ERROR_CASES[case]
    messages = {}
    for cls in (Interpreter, ReferenceInterpreter):
        # Fresh statement objects per run are not needed: nothing mutates the IR.
        component = Component("comp", STATE, [Handler("go", "m", body)])
        interp = cls(component, _failing_library(), tracked_vars={"a"}, max_loop_iterations=10)
        state = ReplicaState.from_component(component)
        uids = UidFactory("10.0.0.1", 1)
        message = Message(UidFactory("c", 0).next_uid(), "go", EXTERNAL, "comp", {"x": 4})
        with pytest.raises(InterpreterError, match=pattern) as info:
            interp.handle(state, message, uids)
        messages[cls] = str(info.value)
        # A failed send consumed no uid.
        assert uids.next_uid().seq == 1
    assert messages[Interpreter] == messages[ReferenceInterpreter]


def test_errors_are_raised_when_reached_not_when_compiled():
    """A malformed node in a branch that is not taken never raises."""
    body = [
        If(
            Field("m", "x") > 100,
            [Assign("a", Field("other", "x")), Assign("a", Var("ghost"))],
            [Assign("a", 1)],
        )
    ]
    component = Component("comp", STATE, [Handler("go", "m", body)])
    interp = Interpreter(component, default_library(), tracked_vars={"a"})
    state = ReplicaState.from_component(component)
    message = Message(UidFactory("c", 0).next_uid(), "go", EXTERNAL, "comp", {"x": 4})
    outcome = interp.handle(state, message, UidFactory("10.0.0.1", 1))
    assert state.values["a"] == 1
    assert outcome.statements_executed == 2
    with pytest.raises(InterpreterError, match="unknown message parameter"):
        interp.handle(
            state,
            Message(UidFactory("c", 0).next_uid(), "go", EXTERNAL, "comp", {"x": 101}),
            UidFactory("10.0.0.1", 1),
        )


def test_unknown_message_type_is_an_ir_error():
    component = Component("comp", STATE, [Handler("go", "m", [Skip()])])
    interp = Interpreter(component, default_library())
    message = Message(UidFactory("c", 0).next_uid(), "other", EXTERNAL, "comp", {})
    with pytest.raises(IRError, match="no handler for message type 'other'"):
        interp.handle(ReplicaState.from_component(component), message, UidFactory("a", 1))


def test_reregistered_library_function_is_picked_up():
    library = default_library()
    component = Component("comp", STATE, [Handler("go", "m", [Assign("a", Call("abs", -2))])])
    interp = Interpreter(component, library)
    state = ReplicaState.from_component(component)
    message = Message(UidFactory("c", 0).next_uid(), "go", EXTERNAL, "comp", {})
    interp.handle(state, message, UidFactory("a", 1))
    assert state.values["a"] == 2
    library.register("abs", lambda x: 99)
    interp.handle(state, message, UidFactory("a", 1))
    assert state.values["a"] == 99


def test_replaced_handler_recompiles():
    """A handler swapped in after its type's first ``handle`` runs the new body."""
    component = Component("comp", STATE, [Handler("go", "m", [Assign("a", 1)])])
    interp = Interpreter(component, default_library(), tracked_vars={"a"})
    state = ReplicaState.from_component(component)
    message = Message(UidFactory("c", 0).next_uid(), "go", EXTERNAL, "comp", {"x": 4})
    uids = UidFactory("10.0.0.1", 1)
    assert interp.handle(state, message, uids).emitted == []
    assert state.values["a"] == 1

    del component.handlers["go"]
    component.add_handler(
        Handler("go", "msg", [Assign("a", Field("msg", "x") + 1), Send("out", CLIENT, {"v": Var("a")})])
    )
    outcome = interp.handle(state, message, uids)
    assert state.values["a"] == 5
    assert [m.fields for m in outcome.emitted] == [{"v": 5}]
    assert outcome.emitted[0].cause_uids == frozenset({message.uid})
    # The other direction too: back to a body without sends.
    del component.handlers["go"]
    component.add_handler(Handler("go", "m", [Assign("a", 7)]))
    assert interp.handle(state, message, uids).emitted == []
    assert state.values["a"] == 7


def test_send_never_caps_out_its_trigger():
    """Past the cap, ``cause_uids`` keeps the trigger and the largest of the rest."""
    body = [
        Assign("acc", Var("acc") + Field("m", "x")),
        Send("out", CLIENT, {"total": Var("acc")}),
    ]
    component = Component("comp", STATE, [Handler("go", "m", body)])
    interp = Interpreter(component, default_library(), tracked_vars={"acc"}, max_provenance=3)
    state = ReplicaState.from_component(component)
    uids = UidFactory("10.0.0.1", 1)
    high = UidFactory("10.0.0.9", 9)  # sorts above everything from "10.0.0.2"
    low = UidFactory("10.0.0.2", 1)
    for _ in range(5):
        message = Message(high.next_uid(), "go", EXTERNAL, "comp", {"x": 1})
        interp.handle(state, message, uids)
    assert len(state.provenance["acc"]) == 3

    message = Message(low.next_uid(), "go", EXTERNAL, "comp", {"x": 1})
    (sent,) = interp.handle(state, message, uids).emitted
    assert message.uid in sent.cause_uids
    assert len(sent.cause_uids) == 3
    assert sent.cause_uids - {message.uid} == {
        MessageUid("10.0.0.9", 9, 4), MessageUid("10.0.0.9", 9, 5)
    }
    # Persisted provenance is capped by the total order alone.
    assert message.uid not in state.provenance["acc"]
