"""CFG simplification: constant branches, block merging, trivial phis."""

from __future__ import annotations

from repro.ir import instructions as I
from repro.ir.module import BasicBlock, Function
from repro.ir.values import Constant, Undef, Value


def _fold_constant_branches(func: Function) -> bool:
    changed = False
    for blk in func.blocks:
        term = blk.terminator
        if isinstance(term, I.Br) and term.is_conditional:
            cond = term.operands[0]
            if isinstance(cond, Constant):
                taken = term.targets[0] if cond.value else term.targets[1]
                dead = term.targets[1] if cond.value else term.targets[0]
                if dead is not taken:
                    for phi in dead.phis():
                        phi.remove_incoming(blk)
                blk.instructions[-1] = I.Br(None, taken)
                blk.instructions[-1].block = blk
                changed = True
            elif term.targets[0] is term.targets[1]:
                blk.instructions[-1] = I.Br(None, term.targets[0])
                blk.instructions[-1].block = blk
                changed = True
    return changed


def _remove_unreachable(func: Function) -> bool:
    reachable: set[int] = set()
    work = [func.entry]
    while work:
        blk = work.pop()
        if id(blk) in reachable:
            continue
        reachable.add(id(blk))
        work.extend(blk.successors())
    dead = [b for b in func.blocks if id(b) not in reachable]
    for blk in dead:
        func.remove_block(blk)
    return bool(dead)


def _simplify_phis(func: Function) -> bool:
    """Remove single-incoming and all-same-value phis.

    Folding ``phi [X, A], [undef, B]`` to X is only legal when X dominates
    the phi (LLVM has the same restriction) — checked lazily.

    Instead of a per-phi RAUW (a full-function operand scan *each*,
    quadratic on phi-heavy functions — unrolled loop nests produce
    hundreds), removals go into one substitution map applied in a single
    walk at the end.  Scans resolve pending entries through the map, so
    each decision sees exactly the IR sequential RAUWs would have produced.
    """
    from repro.ir.instructions import Instruction
    from repro.ir.passes.cfgutils import dominates, dominators

    subst: dict[int, Value] = {}

    def resolve(v: Value) -> Value:
        # chains (phiA -> phiB -> x) arise when a phi's sole value is a
        # phi scheduled for removal earlier in this scan; cycles cannot:
        # a self-reference resolves to the scanned phi and is skipped
        while isinstance(v, Instruction) and id(v) in subst:
            v = subst[id(v)]
        return v

    changed = False
    idom = None
    for blk in func.blocks:
        for phi in list(blk.phis()):
            distinct: list[Value] = []
            saw_undef = False
            for v, _b in phi.incoming():
                v = resolve(v)
                if v is phi:
                    continue
                if isinstance(v, Undef):
                    saw_undef = True
                    continue
                if not any(v is d for d in distinct):
                    distinct.append(v)
            if len(distinct) == 1:
                repl = distinct[0]
                if saw_undef and isinstance(repl, Instruction):
                    if idom is None:
                        idom = dominators(func)
                    def_blk = repl.block
                    if def_blk is None or def_blk not in idom or blk not in idom \
                            or def_blk is blk \
                            or not dominates(idom, def_blk, blk):
                        continue
                subst[id(phi)] = repl
                blk.instructions.remove(phi)
                changed = True
            elif len(distinct) == 0 and phi.incoming_blocks:
                subst[id(phi)] = Undef(phi.type)
                blk.instructions.remove(phi)
                changed = True
    if subst:
        for ins in func.instructions():
            ops = ins.operands
            for i, op in enumerate(ops):
                r = resolve(op)
                if r is not op:
                    ops[i] = r
        func.bump_version()
    return changed


def _merge_straight_line(func: Function) -> bool:
    """Merge B into A when A->B is the only edge in both directions."""
    changed = False
    again = True
    while again:
        again = False
        preds: dict[int, list[BasicBlock]] = {id(b): [] for b in func.blocks}
        for b in func.blocks:
            for s in b.successors():
                preds[id(s)].append(b)
        for a in func.blocks:
            term = a.terminator
            if not (isinstance(term, I.Br) and not term.is_conditional):
                continue
            b = term.targets[0]
            if b is a or b is func.entry:
                continue
            if len(preds[id(b)]) != 1:
                continue
            if b.phis():
                # single predecessor: phis are trivial, resolve them first
                for phi in list(b.phis()):
                    v = phi.incoming_for(a)
                    assert v is not None
                    func.replace_all_uses(phi, v)
                    b.instructions.remove(phi)
            a.instructions.pop()  # drop the br
            for ins in b.instructions:
                ins.block = a
                a.instructions.append(ins)
            # phis in b's successors now flow from a
            for succ in b.successors():
                for phi in succ.phis():
                    for i, ib in enumerate(phi.incoming_blocks):
                        if ib is b:
                            phi.incoming_blocks[i] = a
            func.blocks.remove(b)
            changed = again = True
            break
    return changed


def _thread_trivial_jumps(func: Function) -> bool:
    """Retarget edges through empty forwarding blocks (only a br)."""
    changed = False
    forward: dict[int, BasicBlock] = {}
    for b in func.blocks:
        if len(b.instructions) == 1:
            t = b.terminator
            if isinstance(t, I.Br) and not t.is_conditional and not b.phis():
                target = t.targets[0]
                if not target.phis() and target is not b:
                    forward[id(b)] = target

    def final(b: BasicBlock) -> BasicBlock:
        seen = set()
        while id(b) in forward and id(b) not in seen:
            seen.add(id(b))
            b = forward[id(b)]
        return b

    for b in func.blocks:
        term = b.terminator
        if isinstance(term, I.Br):
            new_targets = [final(t) for t in term.targets]
            if any(n is not o for n, o in zip(new_targets, term.targets)):
                term.targets = new_targets
                changed = True
    return changed


def run(func: Function) -> bool:
    """Run all CFG simplifications to a local fixpoint."""
    changed = False
    for _ in range(16):
        round_changed = False
        round_changed |= _fold_constant_branches(func)
        round_changed |= _thread_trivial_jumps(func)
        round_changed |= _remove_unreachable(func)
        round_changed |= _simplify_phis(func)
        round_changed |= _merge_straight_line(func)
        changed |= round_changed
        if not round_changed:
            break
    if changed:
        func.bump_version()
    return changed
