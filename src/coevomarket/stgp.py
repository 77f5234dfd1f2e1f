"""Genetic programming over arithmetic quote-price expression trees.

Genomes are nested tuples in prefix form, e.g. ``("S", ("S", "Pbest", 1),
"LIMIT")``: operators A/S/M/D (add, subtract, multiply, divide) always
take two children; terminals are integer constants, the best same-side
price ``Pbest``, or the customer limit ``LIMIT``.  Every node is a
number, and the genetic operators only ever exchange subtrees or
rewrite nodes of matching arity, so all offspring stay well-formed by
construction.
"""

import math
import random
import statistics
from bisect import bisect_right
from dataclasses import dataclass, replace
from itertools import accumulate

from .lob import BID, PriceBounds
from .seeds import derive_seed

OPERATORS = ("A", "S", "M", "D")
VARIABLES = ("Pbest", "LIMIT")


def is_operator(node) -> bool:
    return isinstance(node, tuple)


def is_const(node) -> bool:
    return isinstance(node, (int, float)) and not isinstance(node, bool)


def validate_tree(tree, max_depth: int = 0):
    """Raise ValueError unless the tree is structurally well-formed.

    ``max_depth`` > 0 additionally bounds the depth; parsing and
    validation of externally supplied genomes deliberately default to
    unbounded, the depth limit is a genetic-operator constraint.
    """
    depth = _check(tree)
    if max_depth and depth > max_depth:
        raise ValueError(f"tree depth {depth} exceeds limit {max_depth}")
    return tree


def _check(node, depth: int = 1) -> int:
    if is_operator(node):
        if len(node) != 3 or node[0] not in OPERATORS:
            raise ValueError(f"malformed operator node {node!r}")
        return max(_check(node[1], depth + 1), _check(node[2], depth + 1))
    if not (is_const(node) or node in VARIABLES):
        raise ValueError(f"unknown terminal {node!r}")
    return depth


def tree_depth(tree) -> int:
    if is_operator(tree):
        return 1 + max(tree_depth(tree[1]), tree_depth(tree[2]))
    return 1


def tree_size(tree) -> int:
    if is_operator(tree):
        return 1 + tree_size(tree[1]) + tree_size(tree[2])
    return 1


def iter_paths(tree):
    """All node positions in pre-order, as index paths from the root."""
    out = [()]
    if is_operator(tree):
        for slot in (1, 2):
            out.extend((slot,) + p for p in iter_paths(tree[slot]))
    return out


def subtree_at(tree, path):
    node = tree
    for slot in path:
        node = node[slot]
    return node


def replace_at(tree, path, sub):
    if not path:
        return sub
    slot = path[0]
    child = replace_at(tree[slot], path[1:], sub)
    if slot == 1:
        return (tree[0], child, tree[2])
    return (tree[0], tree[1], child)


def format_tree(tree) -> str:
    if is_operator(tree):
        return f"({tree[0]},{format_tree(tree[1])},{format_tree(tree[2])})"
    return str(tree) if isinstance(tree, str) else repr(tree)


def parse_tree(text: str):
    """Parse the parenthesized prefix form, e.g. (S,(S,Pbest,1),LIMIT)."""
    tokens = _tokenize(text)
    pos = 0

    def parse():
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError(f"unexpected end of genome {text!r}")
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            op = _expect_symbol()
            if op not in OPERATORS:
                raise ValueError(f"unknown operator {op!r} in {text!r}")
            _expect(",")
            left = parse()
            _expect(",")
            right = parse()
            _expect(")")
            return (op, left, right)
        if tok in (")", ","):
            raise ValueError(f"unexpected {tok!r} in {text!r}")
        return _literal(tok)

    def _expect(sym):
        nonlocal pos
        if pos >= len(tokens) or tokens[pos] != sym:
            raise ValueError(f"expected {sym!r} in {text!r}")
        pos += 1

    def _expect_symbol():
        nonlocal pos
        if pos >= len(tokens) or tokens[pos] in "(),":
            raise ValueError(f"expected operator symbol in {text!r}")
        tok = tokens[pos]
        pos += 1
        return tok

    def _literal(tok):
        if tok in VARIABLES:
            return tok
        try:
            return int(tok)
        except ValueError:
            pass
        try:
            return float(tok)
        except ValueError:
            raise ValueError(f"unknown terminal {tok!r} in {text!r}") from None

    tree = parse()
    if pos != len(tokens):
        raise ValueError(f"trailing tokens in {text!r}")
    return tree


def _tokenize(text: str) -> list:
    tokens = []
    atom = ""
    for ch in text:
        if ch in "(),":
            if atom:
                tokens.append(atom)
                atom = ""
            tokens.append(ch)
        elif ch.isspace():
            if atom:
                tokens.append(atom)
                atom = ""
        else:
            atom += ch
    if atom:
        tokens.append(atom)
    return tokens


# --- evaluation ---

@dataclass(frozen=True)
class EvalContext:
    """Market view a genome is evaluated against.

    ``best_same`` is the best price on the trader's own side of the
    book, or None when that side is empty; ``best_same_fallback`` is
    what Pbest reads in that case (the session layer passes the
    own-side stub price; bare contexts default to the limit).
    """

    best_same: int | None
    limit: int
    bounds: PriceBounds = PriceBounds()
    best_same_fallback: int | None = None

    def pbest(self):
        if self.best_same is not None:
            return self.best_same
        if self.best_same_fallback is not None:
            return self.best_same_fallback
        return self.limit


def _as_float(x) -> float:
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _apply(op: str, a, b):
    """Totalized arithmetic: x/0 := 1, and operations whose exact result
    cannot be represented saturate through IEEE infinities."""
    if op == "D":
        if b == 0:
            return 1
        try:
            return a / b
        except OverflowError:
            return _as_float(a) / _as_float(b)
    try:
        if op == "A":
            return a + b
        if op == "S":
            return a - b
        return a * b
    except OverflowError:
        a, b = _as_float(a), _as_float(b)
        if op == "A":
            return a + b
        if op == "S":
            return a - b
        return a * b


def eval_tree(tree, ctx: EvalContext):
    if is_operator(tree):
        return _apply(tree[0], eval_tree(tree[1], ctx), eval_tree(tree[2], ctx))
    if tree == "Pbest":
        return ctx.pbest()
    if tree == "LIMIT":
        return ctx.limit
    return tree


def quote_from_tree(tree, ctx: EvalContext, side: str, mode: str = "raw") -> int:
    """Map a genome's value to a legal quote price.

    ``raw`` reads the expression as the quote itself; ``improvement``
    reads it as an offset added to the limit price.  Either way the
    quote is rounded, capped against the limit on the loss-making side,
    and clamped to system bounds.
    """
    v = eval_tree(tree, ctx)
    if mode == "improvement":
        v = _apply("A", ctx.limit, v)
    elif mode != "raw":
        raise ValueError(f"unknown quote mode {mode!r}")
    if isinstance(v, float):
        if math.isnan(v):
            v = ctx.limit
        elif math.isinf(v):
            v = ctx.bounds.sys_max if v > 0 else ctx.bounds.sys_min
    v = round(v)
    q = min(v, ctx.limit) if side == BID else max(v, ctx.limit)
    return ctx.bounds.clamp(q)


# --- genetic operators ---

def random_terminal(rng, const_pool=(1, 7)):
    if rng.random() < 0.5:
        return rng.choice(const_pool)
    return rng.choice(VARIABLES)


def random_tree(rng, max_depth: int = 4, const_pool=(1, 7), p_leaf: float = 0.3):
    """Grow a random well-formed tree of depth <= max_depth."""
    if max_depth <= 1 or rng.random() < p_leaf:
        return random_terminal(rng, const_pool)
    op = rng.choice(OPERATORS)
    return (op,
            random_tree(rng, max_depth - 1, const_pool, p_leaf),
            random_tree(rng, max_depth - 1, const_pool, p_leaf))


def crossover(p1, p2, rng, max_depth: int = 8):
    """Swap uniformly chosen subtrees between parents.

    A child that would exceed ``max_depth`` is replaced by its own
    parent unchanged, bounding bloat without biasing which nodes get
    picked.
    """
    paths1 = iter_paths(p1)
    path1 = paths1[rng.randrange(len(paths1))]
    sub1 = subtree_at(p1, path1)
    paths2 = iter_paths(p2)
    path2 = paths2[rng.randrange(len(paths2))]
    sub2 = subtree_at(p2, path2)
    c1 = replace_at(p1, path1, sub2)
    c2 = replace_at(p2, path2, sub1)
    if tree_depth(c1) > max_depth:
        c1 = p1
    if tree_depth(c2) > max_depth:
        c2 = p2
    return c1, c2


def point_mutate(tree, rng, p_mut: float, const_pool=(1, 7)):
    """Independently rewrite each node's symbol with probability p_mut.

    Rewrites preserve arity and type: operators become a different
    operator, constants are redrawn from the pool, variables flip to
    the other variable.  Structure never changes.
    """
    if is_operator(tree):
        op = tree[0]
        if rng.random() < p_mut:
            op = rng.choice([o for o in OPERATORS if o != tree[0]])
        return (op,
                point_mutate(tree[1], rng, p_mut, const_pool),
                point_mutate(tree[2], rng, p_mut, const_pool))
    if rng.random() < p_mut:
        if tree in VARIABLES:
            return VARIABLES[1 - VARIABLES.index(tree)]
        alternatives = [c for c in const_pool if c != tree]
        if alternatives:
            return rng.choice(alternatives)
    return tree


# --- populations and generations ---

@dataclass(frozen=True)
class Individual:
    genome: object
    fitness: float = 0.0
    id: str = ""


@dataclass
class Population:
    individuals: list
    generation: int = 1


@dataclass(frozen=True)
class GenParams:
    p_x: float = 0.9
    p_mut: float = 0.05
    max_depth: int = 8
    const_pool: tuple = (1, 7)
    eps_sel: float = 1e-6


@dataclass(frozen=True)
class GenStats:
    gen: int
    max_fitness: float
    mean_fitness: float
    std_fitness: float
    mean_size: float
    elite: object = None  # genome of the best evaluated individual


def initial_population(size: int, seed_genome, generation: int = 1) -> Population:
    """Seed population: every individual starts from the same genome."""
    validate_tree(seed_genome)
    individuals = [Individual(genome=seed_genome, fitness=0.0,
                              id=f"g{generation}_{i:03d}")
                   for i in range(size)]
    return Population(individuals=individuals, generation=generation)


def select_parent(pop, rng, eps_sel: float = 1e-6):
    """Roulette-wheel selection on shifted fitness f - min(f) + eps_sel.

    The shift keeps the wheel well-defined when profits are all equal
    or all zero (every individual then has equal probability).
    """
    individuals = pop.individuals if isinstance(pop, Population) else pop
    if not individuals:
        raise ValueError("cannot select from an empty population")
    lo = min(ind.fitness for ind in individuals)
    cum = list(accumulate(ind.fitness - lo + eps_sel for ind in individuals))
    r = rng.random() * cum[-1]
    i = bisect_right(cum, r)
    return individuals[min(i, len(individuals) - 1)]


def run_generation(pop: Population, market_template, gen_params: GenParams,
                   seed: int):
    """Evaluate a population in one market session and breed the next.

    Every individual is seated at one STGP roster slot (template order);
    fitness is that trader's session profit, reset fresh each
    generation.  Children are bred by fitness-proportionate selection,
    subtree crossover at rate p_x, then point mutation; the evaluated
    population is discarded.  Returns (next population, stats of the
    evaluated one).
    """
    from .harness import run_session

    slots = [e.tid for e in market_template.roster if e.strategy.kind == "STGP"]
    if len(slots) != len(pop.individuals):
        raise ValueError(f"template has {len(slots)} STGP seats for "
                         f"{len(pop.individuals)} individuals")
    by_tid = dict(zip(slots, pop.individuals))
    roster = [replace(e, strategy=replace(e.strategy, tree=by_tid[e.tid].genome))
              if e.tid in by_tid else e
              for e in market_template.roster]
    cfg = replace(market_template, roster=roster, seed=seed)
    result = run_session(cfg)

    evaluated = [replace(ind, fitness=float(result.profits[tid]))
                 for tid, ind in zip(slots, pop.individuals)]
    fits = [ind.fitness for ind in evaluated]
    best = max(range(len(evaluated)), key=lambda i: fits[i])
    stats = GenStats(
        gen=pop.generation,
        max_fitness=fits[best],
        mean_fitness=statistics.fmean(fits),
        std_fitness=statistics.pstdev(fits),
        mean_size=statistics.fmean(tree_size(ind.genome) for ind in evaluated),
        elite=evaluated[best].genome,
    )

    size = len(evaluated)
    epop = Population(individuals=evaluated, generation=pop.generation)
    rng = _breed_rng(seed, pop.generation)
    children = []
    while len(children) < size:
        pa = select_parent(epop, rng, gen_params.eps_sel)
        pb = select_parent(epop, rng, gen_params.eps_sel)
        if rng.random() < gen_params.p_x:
            g1, g2 = crossover(pa.genome, pb.genome, rng, gen_params.max_depth)
        else:
            g1, g2 = pa.genome, pb.genome
        for g in (g1, g2):
            if len(children) < size:
                children.append(point_mutate(g, rng, gen_params.p_mut,
                                             gen_params.const_pool))
    next_gen = pop.generation + 1
    next_pop = Population(
        individuals=[Individual(genome=g, fitness=0.0, id=f"g{next_gen}_{i:03d}")
                     for i, g in enumerate(children)],
        generation=next_gen,
    )
    return next_pop, stats


def _breed_rng(seed: int, generation: int):
    return random.Random(derive_seed(seed, "breed", generation))


def run_experiment(market_template, seed_genome, generations: int,
                   gen_params: GenParams, seed: int) -> list:
    """Multi-generation run; returns the GenStats series.

    The population size is the number of STGP seats in the template;
    generation g runs on its own derived session seed.
    """
    seats = sum(1 for e in market_template.roster if e.strategy.kind == "STGP")
    pop = initial_population(seats, seed_genome)
    series = []
    for _ in range(generations):
        pop, stats = run_generation(pop, market_template, gen_params,
                                    derive_seed(seed, "gen", pop.generation))
        series.append(stats)
    return series


def export_genstats(stats_rows, fileobj):
    """Write GenStats rows as CSV: gen,max_fitness,mean_fitness,std_fitness,mean_size."""
    fileobj.write("gen,max_fitness,mean_fitness,std_fitness,mean_size\n")
    for s in stats_rows:
        fileobj.write(f"{s.gen},{s.max_fitness!r},{s.mean_fitness!r},"
                      f"{s.std_fitness!r},{s.mean_size!r}\n")


# --- canonicalization ---

def canonicalize(tree):
    """Reduce a genome to a canonical representative of its behavior.

    Constant subtrees fold to a single constant (float results that are
    exact integers become ints).  Chains of additions and subtractions
    over exactly one positively-signed variable terminal and integer
    constants collapse to ``var``, ``(A, var, c)``, or ``(S, var, c)``
    with c > 0; integer-only collapsing keeps evaluation exactly equal,
    since float reassociation would not.  Everything else is left
    structurally intact with canonicalized children.
    """
    if not is_operator(tree):
        return _norm_const(tree)
    op = tree[0]
    a = canonicalize(tree[1])
    b = canonicalize(tree[2])
    if is_const(a) and is_const(b):
        return _norm_const(_apply(op, a, b))
    if op in ("A", "S"):
        collapsed = _collapse_chain((op, a, b))
        if collapsed is not None:
            return collapsed
    return (op, a, b)


def _norm_const(node):
    if isinstance(node, float) and node.is_integer() and abs(node) <= 2 ** 53:
        return int(node)
    return node


def _collapse_chain(node):
    """Collapse an A/S chain to its normal form, or None if not eligible."""
    terms = []
    _flatten(node, 1, terms)
    variables = [(sign, t) for sign, t in terms if t in VARIABLES]
    consts = [(sign, t) for sign, t in terms if is_const(t)]
    if len(variables) + len(consts) != len(terms):
        return None  # an M/D subtree participates; leave the chain alone
    if len(variables) != 1 or variables[0][0] != 1:
        return None
    if not all(isinstance(c, int) for _, c in consts):
        return None
    var = variables[0][1]
    c = sum(sign * value for sign, value in consts)
    if c == 0:
        return var
    return ("A", var, c) if c > 0 else ("S", var, -c)


def _flatten(node, sign, out):
    if is_operator(node) and node[0] in ("A", "S"):
        _flatten(node[1], sign, out)
        _flatten(node[2], sign if node[0] == "A" else -sign, out)
    else:
        out.append((sign, node))
