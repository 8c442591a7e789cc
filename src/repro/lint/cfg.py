"""Intraprocedural release-on-all-paths ("lockset") analysis.

The LOCK family asks one question: *a lock was acquired here — is it
provably released on every path out of the function, including the
exception paths?*  This module answers it with a small abstract
interpreter over the statement AST:

* the abstract state is the set of *held tokens* (local names bound by a
  recognized acquire call);
* every statement that can raise (it contains a call, a ``yield``, or an
  ``await``) contributes an *exception edge* carrying the state before
  the statement;
* ``try`` routes exception edges into handlers and through ``finally``;
  loops route ``break``/``continue``; ``return`` and falling off the end
  are normal exits;
* a token *escapes* (ownership transfer — tracking stops) when its name
  is returned, stored, or passed to any call other than a recognized
  release; ``yield token`` alone keeps it held (that is how a simulation
  process *waits* for the grant, not how it gives the token away);
* branch conditions of the form ``tok``/``tok is not None`` prune the
  infeasible arm: a held token is never ``None``.

Any exit reached with a non-empty held set is a leak, reported at the
acquire site.  The analysis is deliberately conservative in the safe
direction for this codebase's idioms — ``try/finally``, ``with``, and
immediate ownership transfer into a handle structure all verify clean.

**Interprocedural extension.**  The same interpreter also runs in two
cross-function modes (driven by :mod:`repro.lint.summaries`):

* *summary mode* — the function's parameters are seeded as held tokens
  (``initial=``) and the exit states classify each parameter's fate:
  ``releases`` (released on every path out), ``keeps`` (still held on
  every exit — the caller must release), ``escapes`` (stored/forwarded
  — ownership left the function), or ``mixed`` (released on some paths
  only — the caller cannot know).  A function that acquires and hands
  the token back on every return is flagged ``returns_acquired``.
* *caller mode* — a ``resolver(call) -> LockSummary | None`` maps call
  sites onto callee summaries: passing a held token to a ``releases``
  callee credits the release, a ``keeps`` callee leaves it held (so a
  later leak is still caught), a ``mixed`` callee is itself reported
  at the call (a LOCK001 finding), and a call that ``returns_acquired``
  counts as an acquire.  Unresolved calls keep the old
  ownership-transfer behavior, so intraprocedural results are
  unchanged.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

State = frozenset  # of held token names


#: Method names whose call result is a held lock token
#: (``Mutex.acquire``, ``DistributedLockManager.acquire``,
#: ``CooperativeDiskDriver.acquire_write_locks``).
ACQUIRE_METHODS = frozenset({"acquire", "acquire_write_locks"})
#: Method names that release a token passed as an argument
#: (``obj.release(tok)``) or called on the token (``tok.release()``).
RELEASE_METHODS = frozenset({"release", "release_write_locks"})


#: Parameter fates a summary can assign (see the module docstring).
FATE_RELEASES = "releases"
FATE_KEEPS = "keeps"
FATE_ESCAPES = "escapes"
FATE_MIXED = "mixed"


@dataclass
class LockSummary:
    """Cross-function behavior of one callee, from the caller's side."""

    qualname: str
    #: positional parameter names (``self``/``cls`` already stripped —
    #: or re-prefixed with the ``<self>`` placeholder by the resolver
    #: for explicit ``ClassName.method(obj, ...)`` call syntax).
    param_order: tuple
    #: parameter name -> one of the FATE_* strings.
    fates: dict
    #: the call's return value is a freshly acquired token on every path.
    returns_acquired: bool


#: Resolves a call site to the callee's summary, or None when the callee
#: is unknown / unresolvable / part of a recursion cycle.
Resolver = Callable[[ast.Call], Optional[LockSummary]]


@dataclass
class _BlockOut:
    """Exits of one statement block, grouped by kind."""

    fall: set = field(default_factory=set)
    ret: list = field(default_factory=list)  # (node, state)
    brk: list = field(default_factory=list)
    cont: list = field(default_factory=list)
    raise_: list = field(default_factory=list)

    def absorb_exits(self, other: "_BlockOut") -> None:
        self.ret.extend(other.ret)
        self.brk.extend(other.brk)
        self.cont.extend(other.cont)
        self.raise_.extend(other.raise_)


class FunctionAnalysis:
    """Run the leak analysis over one function body."""

    def __init__(
        self,
        func: ast.AST,
        resolver: Resolver | None = None,
        initial: tuple = (),
    ):
        self.func = func
        #: call-site -> callee LockSummary (interprocedural mode only).
        self.resolver = resolver
        #: token names held on entry (summary mode seeds the parameters).
        self.initial = tuple(initial)
        #: token name -> acquire call node (for reporting)
        self.acquire_sites: dict[str, ast.AST] = {}
        self.leaks: dict[int, ast.AST] = {}
        self.discards: list[ast.AST] = []
        #: (id(call), token) -> (call node, token, callee qualname) for
        #: held tokens passed to a callee with a ``mixed`` fate.
        self.mixed_calls: dict[tuple, tuple] = {}
        #: fate bookkeeping for summary mode.
        self.released_ever: set = set()
        self.escaped_ever: set = set()
        #: one bool per (return stmt, state): the value handed back is a
        #: held acquired token (or a direct acquire call).
        self.return_token_flags: list[bool] = []
        self._returns_direct_acquire = False
        self.out: _BlockOut | None = None

    # -- entry -------------------------------------------------------------
    def run(self) -> None:
        self.out = self._exec_block(self.func.body, {State(self.initial)})
        out = self.out
        for _node, state in out.ret + out.raise_:
            self._note_leak(state)
        for state in out.fall:
            self._note_leak(state)

    # -- summary-mode classification ---------------------------------------
    def param_fates(self) -> dict:
        """Fate of every ``initial`` token, from the final exit states.
        Call after :meth:`run`."""
        assert self.out is not None
        out = self.out
        exits = (
            [s for _n, s in out.ret]
            + [s for _n, s in out.raise_]
            + list(out.fall)
        )
        fates: dict = {}
        for name in self.initial:
            held_some = any(name in s for s in exits)
            held_all = bool(exits) and all(name in s for s in exits)
            if name in self.escaped_ever:
                fates[name] = FATE_ESCAPES
            elif held_all and name not in self.released_ever:
                fates[name] = FATE_KEEPS
            elif not held_some and name in self.released_ever:
                fates[name] = FATE_RELEASES
            elif not held_some:
                # Vanished without an explicit release (rebinding, ...).
                fates[name] = FATE_ESCAPES
            else:
                fates[name] = FATE_MIXED
        return fates

    def returns_acquired(self) -> bool:
        """Every path out returns a freshly acquired, still-held token."""
        assert self.out is not None
        if self.leaks or self.discards:
            return False
        if not self.acquire_sites and not self._returns_direct_acquire:
            return False
        if self.out.fall:  # falling off the end returns None
            return False
        return bool(self.return_token_flags) and all(self.return_token_flags)

    def _note_leak(self, state: State) -> None:
        for token in state:
            site = self.acquire_sites.get(token)
            if site is not None:
                self.leaks[id(site)] = site

    # -- matchers ----------------------------------------------------------
    def _acquire_call(self, expr: ast.AST) -> ast.Call | None:
        """The acquire call inside ``expr`` (unwrapping yield-from/await)."""
        if isinstance(expr, (ast.YieldFrom, ast.Await)):
            expr = expr.value
        if (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr in ACQUIRE_METHODS
        ):
            return expr
        if self.resolver is not None and isinstance(expr, ast.Call):
            summary = self.resolver(expr)
            if summary is not None and summary.returns_acquired:
                return expr
        return None

    def _summary_token_fates(self, call: ast.Call, state: State) -> Iterator[tuple]:
        """``(token, fate, callee)`` for each held token passed to a call
        the resolver maps onto a summary."""
        if self.resolver is None:
            return
        summary = self.resolver(call)
        if summary is None:
            return
        for i, arg in enumerate(call.args):
            if not isinstance(arg, ast.Name) or arg.id not in state:
                continue
            if i >= len(summary.param_order):
                continue  # *args tail: no mapping, keep escape behavior
            fate = summary.fates.get(summary.param_order[i])
            if fate is not None:
                yield arg.id, fate, summary.qualname
        for kw in call.keywords:
            if kw.arg is None or not isinstance(kw.value, ast.Name):
                continue
            if kw.value.id not in state:
                continue
            fate = summary.fates.get(kw.arg)
            if fate is not None:
                yield kw.value.id, fate, summary.qualname

    def _released_tokens(self, stmt: ast.stmt, state: State) -> set:
        """Tokens released by ``stmt`` (``obj.release(tok)`` / ``tok.release()``
        / a held token passed to a callee summarized as ``releases``)."""
        released = set()
        if not state:
            return released
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in RELEASE_METHODS
            ):
                # tok.release() style: the receiver is the token itself.
                if isinstance(func.value, ast.Name) and func.value.id in state:
                    released.add(func.value.id)
                # obj.release(tok) style: the token rides as an argument.
                for arg in node.args:
                    if isinstance(arg, ast.Name) and arg.id in state:
                        released.add(arg.id)
            elif self.resolver is not None:
                for tok, fate, _callee in self._summary_token_fates(node, state):
                    if fate == FATE_RELEASES:
                        released.add(tok)
        self.released_ever.update(released)
        return released

    def _escaping_tokens(self, stmt: ast.stmt, state: State) -> set:
        """Tokens whose name is used in a way that transfers ownership."""
        if not state:
            return set()
        released = self._released_tokens(stmt, state)
        kept = set()
        # ``yield tok`` / ``x = yield tok``: waiting on the token, not
        # giving it away.
        for node in ast.walk(stmt):
            if isinstance(node, ast.Yield) and isinstance(node.value, ast.Name):
                kept.add(node.value.id)
        # Node-identity-level exemptions: an argument position that a
        # callee summary proves keeps (or releases) the token does not
        # transfer ownership; any *other* use of the same name in the
        # statement still escapes.
        kept_ids: set = set()
        if self.resolver is not None:
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in RELEASE_METHODS
                ):
                    continue
                for tok, fate, callee in self._summary_token_fates(node, state):
                    if fate in (FATE_KEEPS, FATE_RELEASES):
                        for arg in list(node.args) + [
                            kw.value for kw in node.keywords
                        ]:
                            if isinstance(arg, ast.Name) and arg.id == tok:
                                kept_ids.add(id(arg))
                    elif fate == FATE_MIXED:
                        self.mixed_calls[(id(node), tok)] = (node, tok, callee)
        escapes = set()
        for node in ast.walk(stmt):
            if (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and node.id in state
                and node.id not in released
                and node.id not in kept
                and id(node) not in kept_ids
            ):
                escapes.add(node.id)
        self.escaped_ever.update(escapes)
        return escapes

    @staticmethod
    def _risky(stmt: ast.stmt) -> bool:
        """Can executing ``stmt`` raise (for our purposes)?"""
        for node in ast.walk(stmt):
            if isinstance(node, (ast.Call, ast.Yield, ast.YieldFrom, ast.Await)):
                return True
        return False

    # -- interpreter -------------------------------------------------------
    def _exec_block(self, stmts: list, in_states: set) -> _BlockOut:
        out = _BlockOut(fall=set(in_states))
        for stmt in stmts:
            if not out.fall:
                break
            out = self._exec_stmt(stmt, out)
        return out

    def _exec_stmt(self, stmt: ast.stmt, incoming: _BlockOut) -> _BlockOut:
        states = incoming.fall
        nxt = _BlockOut()
        nxt.absorb_exits(incoming)

        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            # A nested definition does not execute; capturing a token in
            # one is ownership transfer (the closure owns it now).
            for state in states:
                caught = {
                    n.id
                    for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and n.id in state
                }
                nxt.fall.add(State(state - caught))
            return nxt

        if isinstance(stmt, ast.Return):
            direct_acquire = (
                stmt.value is not None
                and self._acquire_call(stmt.value) is not None
            )
            if direct_acquire:
                self._returns_direct_acquire = True
            for state in states:
                dropped = state
                flag = direct_acquire
                if isinstance(stmt.value, ast.Name):
                    name = stmt.value.id
                    flag = name in state and name in self.acquire_sites
                    dropped = State(state - {name})
                elif stmt.value is not None and not direct_acquire:
                    dropped = State(
                        state - self._escaping_tokens(stmt, state)
                    )
                self.return_token_flags.append(flag)
                nxt.ret.append((stmt, dropped))
            return nxt

        if isinstance(stmt, ast.Raise):
            for state in states:
                nxt.raise_.append((stmt, state))
            return nxt

        if isinstance(stmt, ast.Break):
            for state in states:
                nxt.brk.append((stmt, state))
            return nxt

        if isinstance(stmt, ast.Continue):
            for state in states:
                nxt.cont.append((stmt, state))
            return nxt

        if isinstance(stmt, ast.If):
            then_in, else_in = self._split_condition(stmt.test, states)
            if self._risky(ast.Expr(stmt.test)):
                for state in states:
                    nxt.raise_.append((stmt, state))
            then_out = self._exec_block(stmt.body, then_in) if then_in else _BlockOut()
            else_out = (
                self._exec_block(stmt.orelse, else_in) if else_in else _BlockOut()
            )
            nxt.fall |= then_out.fall | else_out.fall
            if not stmt.orelse:
                nxt.fall |= else_in
            nxt.absorb_exits(then_out)
            nxt.absorb_exits(else_out)
            return nxt

        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            return self._exec_loop(stmt, states, nxt)

        if isinstance(stmt, ast.Try):
            return self._exec_try(stmt, states, nxt)

        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._exec_with(stmt, states, nxt)

        # -- simple statement ---------------------------------------------
        acquire = None
        token = None
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and isinstance(
            stmt.targets[0], ast.Name
        ):
            acquire = self._acquire_call(stmt.value)
            token = stmt.targets[0].id if acquire is not None else None
        elif isinstance(stmt, ast.Expr):
            inner = stmt.value
            if (
                isinstance(inner, (ast.Yield, ast.YieldFrom, ast.Await))
                and inner.value is not None
            ):
                inner = inner.value
            if self._acquire_call(inner) is not None:
                self.discards.append(stmt)

        if self._risky(stmt):
            # Exception edge: an acquire that raises has not acquired,
            # and a statement that releases or hands a token off is
            # credited with the transfer even if it then raises; any
            # *other* token still held rides the edge.
            for state in states:
                pre = State(
                    state
                    - self._released_tokens(stmt, state)
                    - self._escaping_tokens(stmt, state)
                )
                nxt.raise_.append((stmt, pre))

        for state in states:
            new = set(state)
            new -= self._released_tokens(stmt, state)
            new -= self._escaping_tokens(stmt, state)
            # Rebinding a held token loses the only handle to it.  (A
            # seeded parameter token has no acquire site: the caller
            # still holds its own reference, so it is not a local leak.)
            for target in getattr(stmt, "targets", []):
                if isinstance(target, ast.Name) and target.id in new and (
                    token != target.id
                ):
                    site = self.acquire_sites.get(target.id)
                    if site is not None:
                        self.leaks[id(site)] = site
                    new.discard(target.id)
            if acquire is not None and token is not None:
                self.acquire_sites[token] = acquire
                new.add(token)
            nxt.fall.add(State(new))
        return nxt

    # -- compound statements ----------------------------------------------
    def _split_condition(self, test: ast.AST, states: set) -> tuple:
        """Prune infeasible states: a held token is never falsy/None.

        Only *locally acquired* tokens qualify — a seeded parameter
        (summary mode) can be a bool or an optional, so branching on it
        must explore both arms or ``if flag: release(tok)`` would be
        misclassified as releasing unconditionally."""

        def token_of(expr: ast.AST) -> str | None:
            if isinstance(expr, ast.Name) and expr.id in self.acquire_sites:
                return expr.id
            return None

        truthy = falsy = None  # token proven held in then/else arm
        if isinstance(test, ast.Name):
            truthy = token_of(test)
        elif isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            falsy = token_of(test.operand)
        elif isinstance(test, ast.Compare) and len(test.ops) == 1 and isinstance(
            test.comparators[0], ast.Constant
        ) and test.comparators[0].value is None:
            if isinstance(test.ops[0], ast.IsNot):
                truthy = token_of(test.left)
            elif isinstance(test.ops[0], ast.Is):
                falsy = token_of(test.left)

        then_in, else_in = set(states), set(states)
        if truthy is not None:
            # else-arm means the token is None: held states are infeasible.
            else_in = {s for s in states if truthy not in s}
        if falsy is not None:
            then_in = {s for s in states if falsy not in s}
        return then_in, else_in

    def _exec_loop(
        self,
        stmt: "ast.While | ast.For | ast.AsyncFor",
        states: set,
        nxt: _BlockOut,
    ) -> _BlockOut:
        if self._risky(ast.Expr(getattr(stmt, "test", None) or getattr(stmt, "iter"))):
            for state in states:
                nxt.raise_.append((stmt, state))
        seen = set(states)
        body_out = _BlockOut()
        for _ in range(len(getattr(self.func, "body", [])) + 8):
            body_out = self._exec_block(stmt.body, seen)
            grown = seen | body_out.fall | {s for _, s in body_out.cont}
            if grown == seen:
                break
            seen = grown
        nxt.ret.extend(body_out.ret)
        nxt.raise_.extend(body_out.raise_)
        # Normal loop exit: condition false on any iteration boundary,
        # or an explicit break.  (A ``while True`` only exits via break.)
        infinite = (
            isinstance(stmt, ast.While)
            and isinstance(stmt.test, ast.Constant)
            and bool(stmt.test.value)
        )
        if not infinite:
            nxt.fall |= seen
        nxt.fall |= {s for _, s in body_out.brk}
        if stmt.orelse:
            else_out = self._exec_block(stmt.orelse, set(nxt.fall))
            nxt.fall = else_out.fall
            nxt.absorb_exits(else_out)
        return nxt

    def _exec_with(
        self,
        stmt: "ast.With | ast.AsyncWith",
        states: set,
        nxt: _BlockOut,
    ) -> _BlockOut:
        entry_states = set()
        for state in states:
            new = set(state)
            for item in stmt.items:
                # ``with obj.acquire():`` — the context manager owns the
                # resource; nothing to track.
                # ``with tok:`` — the token releases itself on exit.
                ctx = item.context_expr
                if isinstance(ctx, ast.Name) and ctx.id in new:
                    new.discard(ctx.id)
            entry_states.add(State(new))
        header_risky = any(
            self._risky(ast.Expr(item.context_expr)) for item in stmt.items
        )
        if header_risky:
            for state in states:
                nxt.raise_.append((stmt, state))
        body_out = self._exec_block(stmt.body, entry_states)
        nxt.fall |= body_out.fall
        nxt.absorb_exits(body_out)
        return nxt

    def _exec_try(self, stmt: ast.Try, states: set, nxt: _BlockOut) -> _BlockOut:
        body_out = self._exec_block(stmt.body, states)

        def _broad_type(t: ast.AST | None) -> bool:
            if t is None:
                return True
            if isinstance(t, ast.Tuple):
                return any(_broad_type(e) for e in t.elts)
            name = t.attr if isinstance(t, ast.Attribute) else getattr(t, "id", "")
            return name in ("Exception", "BaseException")

        broad = any(_broad_type(h.type) for h in stmt.handlers)
        handler_entry = {s for _, s in body_out.raise_}
        merged = _BlockOut()
        merged.ret.extend(body_out.ret)
        merged.brk.extend(body_out.brk)
        merged.cont.extend(body_out.cont)
        if stmt.handlers:
            for handler in stmt.handlers:
                h_out = self._exec_block(handler.body, set(handler_entry))
                merged.fall |= h_out.fall
                merged.absorb_exits(h_out)
            if not broad:
                # A narrow handler may not catch: the raise can still
                # propagate past this try.
                merged.raise_.extend(body_out.raise_)
        else:
            merged.raise_.extend(body_out.raise_)

        if stmt.orelse:
            else_out = self._exec_block(stmt.orelse, body_out.fall)
            merged.fall |= else_out.fall
            merged.absorb_exits(else_out)
        else:
            merged.fall |= body_out.fall

        if not stmt.finalbody:
            nxt.fall |= merged.fall
            nxt.absorb_exits(merged)
            return nxt

        # Route every exit class through the finally block.
        def through(states_in: set) -> set:
            if not states_in:
                return set()
            f_out = self._exec_block(stmt.finalbody, states_in)
            nxt.ret.extend(f_out.ret)
            nxt.brk.extend(f_out.brk)
            nxt.cont.extend(f_out.cont)
            nxt.raise_.extend(f_out.raise_)
            return f_out.fall

        nxt.fall |= through(merged.fall)
        for node, state in merged.ret:
            for s in through({state}):
                nxt.ret.append((node, s))
        for node, state in merged.brk:
            for s in through({state}):
                nxt.brk.append((node, s))
        for node, state in merged.cont:
            for s in through({state}):
                nxt.cont.append((node, s))
        for node, state in merged.raise_:
            for s in through({state}):
                nxt.raise_.append((node, s))
        return nxt
