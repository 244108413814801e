"""Reference interpreter used to cross-check the planner, the validator,
the type hierarchy, the problem parser's atom checks, the scene
classifier and the detection merge.

Deliberately naive: subtyping by walking the parent pairs, problem atoms
checked by linear scans, generate-and-test grounding, closure by repeated
full re-derivation of every rule, read or not, read predicates by a
depth-first walk, h_add by Bellman-Ford sweeps, breadth-first search with
no ordering tricks, 1-NN labels by nested loops, and detection merging
by a list of overlaps per phrase.  The box features and the IoU are
written here again from the docstrings of ``graph.enumerate_candidates``,
``graph.unary_feature`` and ``scene.merge_detections``.  It imports only
the model types, never the scene, graph, planner or metrics modules, so
agreement between the implementations is meaningful evidence rather
than an echo.
"""

from __future__ import annotations

import itertools
from collections import deque

from sceneground.pddl.model import (
    EQUALITY,
    ROOT_TYPE,
    Domain,
    GroundAtom,
    Plan,
    PlanStep,
    Problem,
    TypeHierarchy,
)


def naive_type_chain(parents, name: str) -> list[str] | None:
    """``name`` and its parents up to the root, or None if the walk loops.

    A parent that is never declared leads straight to the root.
    """
    chain = [name]
    while chain[-1] != ROOT_TYPE:
        if len(chain) > len(parents) + 1:
            return None
        parent = ROOT_TYPE
        for child, declared in parents:
            if child == chain[-1]:
                parent = declared
        chain.append(parent)
    return chain


def naive_is_subtype(hierarchy: TypeHierarchy, name: str, ancestor: str) -> bool:
    """True if both are types of the hierarchy and ``ancestor`` lies on
    ``name``'s walk to the root."""
    declared = [ROOT_TYPE] + [child for child, _ in hierarchy.parents]
    if name not in declared or ancestor not in declared:
        return False
    return ancestor in naive_type_chain(hierarchy.parents, name)


def _subst(atom, env):
    return GroundAtom(atom.predicate, tuple(env[a] for a in atom.args))


def _rule_variables(rule) -> list[str]:
    variables = []
    for atom in (rule.head, *rule.body):
        for var in atom.args:
            if var not in variables:
                variables.append(var)
    return variables


def naive_rule_instances(domain: Domain, objects):
    """(body, head) of every binding of every rule's variables to the
    names of ``objects``, untyped.  It depends on the domain and the
    objects only, so a caller that closes many states over one object set
    grounds it once."""
    names = [name for name, _ in objects]
    out = []
    for rule in domain.derived:
        variables = _rule_variables(rule)
        for combo in itertools.product(names, repeat=len(variables)):
            env = dict(zip(variables, combo))
            out.append((tuple(_subst(b, env) for b in rule.body), _subst(rule.head, env)))
    return out


def naive_closure(atoms, domain: Domain, instances=None) -> frozenset[GroundAtom]:
    """Base plus derived atoms, by exhaustive re-derivation to a fixpoint.

    Variables range over every constant mentioned anywhere in the current
    atom set; the body-membership test discards ill-typed combinations
    because ill-typed atoms can never be present.  ``instances`` may be
    ``naive_rule_instances`` over objects that include every constant of
    ``atoms``: a rule's head variables all occur in its body, so a binding
    to a constant no atom mentions never fires, and the fixpoint is the
    same.
    """
    known = set(atoms)
    while True:
        if instances is not None:
            fresh = {head for body, head in instances if known.issuperset(body)}
        else:
            constants = sorted({name for atom in known for name in atom.args})
            fresh = set()
            for rule in domain.derived:
                variables = _rule_variables(rule)
                for combo in itertools.product(constants, repeat=len(variables)):
                    env = dict(zip(variables, combo))
                    if all(_subst(b, env) in known for b in rule.body):
                        fresh.add(_subst(rule.head, env))
        fresh -= known
        if not fresh:
            return frozenset(known)
        known |= fresh


def naive_read_predicates(domain: Domain, goal) -> set[str]:
    """Every predicate that an action precondition (either sign) or a goal
    literal names, and every predicate in the body of a rule whose head is
    one of these, by a depth-first walk from the first two."""
    stack = [lit.atom.predicate for lit in goal]
    for schema in domain.actions:
        stack += [lit.atom.predicate for lit in schema.precondition]
    read = set()
    while stack:
        name = stack.pop()
        if name in read:
            continue
        read.add(name)
        for rule in domain.derived:
            if rule.head.predicate == name:
                stack.extend(atom.predicate for atom in rule.body)
    return read


def naive_unread(domain: Domain, goal, atoms) -> set[GroundAtom]:
    """The atoms of derived predicates that ``naive_read_predicates`` lacks."""
    read = naive_read_predicates(domain, goal)
    derived = {sig.name for sig in domain.predicates if sig.kind == "derived"}
    return {atom for atom in atoms if atom.predicate in derived - read}


def naive_apply(domain: Domain, atoms: frozenset, step: PlanStep, closures=None):
    """One plan step against a base atom set.

    Returns ("ok", next_atoms), ("unknown-action", None) for a missing
    schema or an arity mismatch, or ("precondition-unsatisfied", None).
    A dict may be passed as closures to memoize fixpoints across calls.
    """
    schema = domain.action(step.action)
    if schema is None or len(schema.params) != len(step.args):
        return "unknown-action", None
    env = {var: value for (var, _), value in zip(schema.params, step.args)}
    if closures is None:
        full = naive_closure(atoms, domain)
    else:
        if atoms not in closures:
            closures[atoms] = naive_closure(atoms, domain)
        full = closures[atoms]
    for lit in schema.precondition:
        if lit.atom.predicate == EQUALITY:
            left, right = (env[a] for a in lit.atom.args)
            holds = left == right
        else:
            holds = _subst(lit.atom, env) in full
        if holds == lit.negated:
            return "precondition-unsatisfied", None
    delete = {_subst(a, env) for a in schema.delete}
    add = {_subst(a, env) for a in schema.add}
    return "ok", frozenset((set(atoms) - delete) | add)


def naive_run(domain: Domain, init, goal, plan: Plan):
    """Replay a plan.  Returns (ok, reason, failing step index)."""
    atoms = frozenset(init)
    for index, step in enumerate(plan.steps):
        reason, atoms = naive_apply(domain, atoms, step)
        if reason != "ok":
            return False, reason, index
    full = naive_closure(atoms, domain)
    for lit in goal:
        if (lit.atom in full) == lit.negated:
            return False, "goal-unsatisfied", None
    return True, None, None


def naive_ground_action(domain: Domain, step: PlanStep):
    """A step's positive and negative precondition atoms, in schema order
    with equality literals left out, and its add and delete sets."""
    schema = domain.action(step.action)
    env = {var: value for (var, _), value in zip(schema.params, step.args)}
    pos, neg = [], []
    for lit in schema.precondition:
        if lit.atom.predicate != EQUALITY:
            (neg if lit.negated else pos).append(_subst(lit.atom, env))
    add = {_subst(a, env) for a in schema.add}
    delete = {_subst(a, env) for a in schema.delete}
    return pos, neg, add, delete


def _ground_steps(domain: Domain, objects):
    steps = []
    for schema in domain.actions:
        pools = []
        for _, want in schema.params:
            pools.append(
                [n for n, t in objects if naive_is_subtype(domain.hierarchy, t, want)]
            )
        for combo in itertools.product(*pools):
            steps.append(PlanStep(schema.name, combo))
    return steps


def naive_bfs(domain: Domain, problem: Problem, state_limit: int = 10**5):
    """Optimal plan length by uninformed search, or None when unsolvable.

    Raises RuntimeError if the reachable space exceeds state_limit; pick
    smaller instances instead of raising the limit.
    """
    steps = _ground_steps(domain, problem.objects)
    instances = naive_rule_instances(domain, problem.objects)
    closures: dict[frozenset, frozenset] = {}

    def satisfied(atoms):
        if atoms not in closures:
            closures[atoms] = naive_closure(atoms, domain, instances)
        reached = closures[atoms]
        return all((lit.atom in reached) != lit.negated for lit in problem.goal)

    start = frozenset(problem.init)
    if satisfied(start):
        return 0
    seen = {start}
    queue = deque([(start, 0)])
    while queue:
        atoms, depth = queue.popleft()
        for step in steps:
            reason, nxt = naive_apply(domain, atoms, step, closures)
            if reason != "ok" or nxt in seen:
                continue
            if satisfied(nxt):
                return depth + 1
            seen.add(nxt)
            if len(seen) > state_limit:
                raise RuntimeError("state limit exceeded")
            queue.append((nxt, depth + 1))
    return None


def well_typed(atom: GroundAtom, domain: Domain, objects) -> bool:
    """True if every argument's object type fits its predicate position."""
    types = dict(objects)
    sig = domain.predicate(atom.predicate)
    return all(
        arg in types and naive_is_subtype(domain.hierarchy, types[arg], want)
        for arg, (_, want) in zip(atom.args, sig.params)
    )


def naive_atom_error(domain: Domain, objects, predicate: str, args, in_init: bool):
    """What the problem parser says about the atom ``(predicate *args)``
    written in :init (``in_init``) or in :goal, as (message, token): token
    0 is the predicate and k the k-th argument.  None if the atom parses.
    ``objects`` holds (name, type) pairs."""
    signature = None
    for sig in domain.predicates:
        if sig.name == predicate:
            signature = sig
    if signature is None:
        return f"unknown predicate {predicate!r}", 0
    if len(args) != len(signature.params):
        return f"{predicate!r} takes {len(signature.params)} args, got {len(args)}", 0
    for k, (arg, (_, want)) in enumerate(zip(args, signature.params), start=1):
        if arg.startswith("?"):
            return f"variables are not allowed here: {arg!r}", k
        kinds = [typ for name, typ in objects if name == arg]
        if not kinds:
            return f"unknown object {arg!r}", k
        if not naive_is_subtype(domain.hierarchy, kinds[0], want):
            return f"{arg!r} has type {kinds[0]!r}, {predicate!r} requires {want!r}", k
    if in_init and signature.kind == "derived":
        return f"derived predicate {predicate!r} cannot appear in :init", 0
    return None


def _relaxed_actions(domain: Domain, objects):
    """(positive preconditions, adds) of each typed grounding whose
    equality literals hold."""
    out = []
    for step in _ground_steps(domain, objects):
        schema = domain.action(step.action)
        env = {var: value for (var, _), value in zip(schema.params, step.args)}
        pre = []
        feasible = True
        for lit in schema.precondition:
            if lit.atom.predicate == EQUALITY:
                left, right = (env[a] for a in lit.atom.args)
                feasible = feasible and (left == right) != lit.negated
            elif not lit.negated:
                pre.append(_subst(lit.atom, env))
        if feasible:
            out.append((pre, [_subst(a, env) for a in schema.add]))
    return out


def _typed_rule_instances(domain: Domain, objects):
    """(body, head) of each rule binding that makes every atom well typed."""
    names = [name for name, _ in objects]
    out = []
    for rule in domain.derived:
        variables = _rule_variables(rule)
        for combo in itertools.product(names, repeat=len(variables)):
            env = dict(zip(variables, combo))
            head = _subst(rule.head, env)
            body = [_subst(b, env) for b in rule.body]
            if all(well_typed(a, domain, objects) for a in (head, *body)):
                out.append((body, head))
    return out


def naive_relaxed_steps(domain: Domain, objects):
    """(needs, makes, own cost) of every relaxed action and every typed
    rule instance over ``objects``: what ``naive_h_add`` sweeps.  It
    depends on the domain and the objects only, so a caller that scores
    many states or goals over one object set grounds it once."""
    steps = [(pre, add, 1.0) for pre, add in _relaxed_actions(domain, objects)]
    steps += [(body, [head], 0.0) for body, head in _typed_rule_instances(domain, objects)]
    return steps


def naive_h_add(domain: Domain, problem: Problem, atoms, steps=None) -> float:
    """Additive delete-relaxation cost of problem.goal from base atoms.

    Bellman-Ford sweeps until no cost drops.  Base atoms cost 0; an action
    costs 1 plus the summed costs of its positive preconditions; a typed
    rule instance costs the summed costs of its body.  The value sums the
    positive goal atoms' costs and adds 1 per negative goal literal whose
    atom costs 0 (holds in the state).  ``steps`` is
    ``naive_relaxed_steps(domain, problem.objects)``, ground here if not
    given.
    """
    if steps is None:
        steps = naive_relaxed_steps(domain, problem.objects)
    cost = {atom: 0.0 for atom in atoms}
    changed = True
    while changed:
        changed = False
        for pre, add, own in steps:
            if not all(atom in cost for atom in pre):
                continue
            total = own + sum(cost[atom] for atom in pre)
            for atom in add:
                if total < cost.get(atom, float("inf")):
                    cost[atom] = total
                    changed = True
    h = 0.0
    for lit in problem.goal:
        if lit.negated:
            h += cost.get(lit.atom) == 0.0
        elif lit.atom not in cost:
            return float("inf")
        else:
            h += cost[lit.atom]
    return h


def naive_iou(a, b) -> float:
    """Intersection over union of two boxes; 0.0 unless they share area."""
    ix = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    iy = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if ix <= 0 or iy <= 0:
        return 0.0
    area_a = (a.x_max - a.x_min) * (a.y_max - a.y_min)
    area_b = (b.x_max - b.x_min) * (b.y_max - b.y_min)
    return ix * iy / (area_a + area_b - ix * iy)


def naive_binary_feature(a, b, width, height) -> tuple[float, ...]:
    """Box ``a``'s corners less box ``b``'s, normalized by the canvas."""
    return (
        (a.x_min - b.x_min) / width,
        (a.y_min - b.y_min) / height,
        (a.x_max - b.x_max) / width,
        (a.y_max - b.y_max) / height,
    )


def naive_unary_feature(box, width, height) -> tuple[float, ...]:
    """Every difference c[j] - c[i] (i < j, in order) of the normalized
    corners c = (x_min/w, y_min/h, x_max/w, y_max/h)."""
    c = (box.x_min / width, box.y_min / height, box.x_max / width, box.y_max / height)
    return tuple(c[j] - c[i] for i in range(4) for j in range(i + 1, 4))


def _naive_candidates(scene, domain: Domain, sig):
    """(args, feature) of every type-valid candidate of one observed
    predicate, in scene order."""
    out = []
    for subj in scene.objects:
        for obj in scene.objects:
            if sig.arity == 1:
                if obj is subj and naive_is_subtype(
                    domain.hierarchy, subj.type, sig.params[0][1]
                ):
                    feature = naive_unary_feature(subj.box, scene.width, scene.height)
                    out.append(((subj.name,), feature))
            elif (
                obj.name != subj.name
                and naive_is_subtype(domain.hierarchy, subj.type, sig.params[0][1])
                and naive_is_subtype(domain.hierarchy, obj.type, sig.params[1][1])
            ):
                feature = naive_binary_feature(subj.box, obj.box, scene.width, scene.height)
                out.append(((subj.name, obj.name), feature))
    return out


def naive_classify_scene(scene, domain: Domain, ex_scene, labels):
    """Atoms 1-NN puts in the init, or None for an uninformative exemplar
    (the scene ``ex_scene`` and the atoms ``labels`` that hold in it).

    Every test candidate is compared with every labeled exemplar candidate
    of its predicate; it is kept when the nearest positive is strictly
    nearer than the nearest negative, so an exact tie is false.  The
    exemplar is uninformative when a predicate with test candidates has no
    positive or no negative exemplar candidate.
    """
    kept = set()
    for sig in domain.observed:
        test = _naive_candidates(scene, domain, sig)
        if not test:
            continue
        positives, negatives = [], []
        for args, feature in _naive_candidates(ex_scene, domain, sig):
            if GroundAtom(sig.name, args) in labels:
                positives.append(feature)
            else:
                negatives.append(feature)
        if not positives or not negatives:
            return None
        for args, feature in test:
            if naive_1nn(feature, positives, negatives):
                kept.add(GroundAtom(sig.name, args))
    return frozenset(kept)


def naive_1nn(feature, positives, negatives) -> bool:
    """The 1-NN label of ``feature``: true when its nearest positive is
    strictly nearer than its nearest negative, so an exact tie is false."""
    return _nearest(feature, positives) < _nearest(feature, negatives)


def naive_distance2(a, b) -> float:
    """Squared Euclidean distance, summed left to right from 0.0.

    An explicit loop rather than ``sum``: from CPython 3.12 on, ``sum`` of
    floats is compensated and can round differently.  Each square is a
    product, which is correctly rounded, not ``** 2``, which calls the C
    library's pow.
    """
    total = 0.0
    for x, y in zip(a, b):
        diff = x - y
        total += diff * diff
    return total


def _nearest(feature, pool) -> float:
    """Smallest squared Euclidean distance from feature to a pool member."""
    best = None
    for other in pool:
        d = naive_distance2(feature, other)
        if best is None or d < best:
            best = d
    return best


def naive_merge(obs, threshold: float = 0.5):
    """(name, type, box) of each object ``merge_detections`` makes of a
    valid observation, following its docstring with ``naive_iou``.

    The class detections, in raster order (y_min, x_min, y_max, x_max),
    come first; then, phrase by phrase, a phrase whose greatest overlap
    with an object so far is positive and reaches ``threshold`` renames
    the first object with that overlap to its referent, if it has one,
    and any other phrase is a new object of its suggested type (the root
    type without one).  Objects are then named in raster order:
    unnamed ones ``<type><k>`` with k counting per type from 1.
    """
    def raster(box):
        return (box.y_min, box.x_min, box.y_max, box.x_max)

    objects = [
        [det.suggested_type or det.query, det.box, None]
        for det in sorted(obs.class_detections, key=lambda d: raster(d.box))
    ]
    for det in obs.phrase_detections:
        overlaps = [naive_iou(det.box, box) for _, box, _ in objects]
        best = max(overlaps, default=0.0)
        if best > 0 and best >= threshold:
            if det.referent_name is not None:
                objects[overlaps.index(best)][2] = det.referent_name
        else:
            objects.append([det.suggested_type or ROOT_TYPE, det.box, det.referent_name])
    counts: dict[str, int] = {}
    named = []
    for typ, box, name in sorted(objects, key=lambda o: raster(o[1])):
        if name is None:
            counts[typ] = counts.get(typ, 0) + 1
            name = f"{typ}{counts[typ]}"
        named.append((name, typ, box))
    return named
