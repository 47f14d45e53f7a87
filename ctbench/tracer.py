"""Outside-in layer trace: wraps public ctgames functions from the benchmark.

Nothing in the package is edited.  `Tracer.install` replaces each traced
function with a timing wrapper in every ctgames module namespace that binds
it, so the copies made by ``from .x import f`` are wrapped too, and
`Tracer.uninstall` puts the originals back.  Methods and classmethods are
wrapped on their class, which every module shares.

Self time is computed by nesting: a span's duration minus the durations of
the traced spans it directly encloses.  When a function re-enters itself,
only the outermost call adds to its total time.
"""

import sys
import time
from types import ModuleType

import numpy as np

PACKAGE = "ctgames"
# (module, qualified name) of every traced public function, by layer.
TRACED = (
    ("markov", "expm"),
    ("markov", "transition_matrix"),
    ("markov", "stationary_distribution"),
    ("game", "nature_generator"),
    ("equilibrium", "value_function"),
    ("equilibrium", "best_response_map"),
    ("equilibrium", "aggregate_generator"),
    ("equilibrium", "solve_mpe"),
    ("likelihood", "SpellStats.from_events"),
    ("likelihood", "discrete_loglik_from_counts"),
    ("likelihood", "transition_counts"),
    ("estimate", "ctnpl"),
    ("estimate", "central_difference_gradient"),
    ("estimate", "LinearizedPolicy.__init__"),
    ("estimate", "LinearizedPolicy.ccp"),
    ("estimate", "init_ccp"),
    ("simulate", "simulate_continuous"),
    ("simulate", "sample_discrete"),
    ("simulate", "EventLog.to_csv"),
    ("simulate", "EventLog.from_csv"),
    ("simulate", "to_panel"),
    ("simulate", "descriptive_stats"),
    ("diagnostics", "best_response_jacobian"),
    ("diagnostics", "stability_objects"),
    ("diagnostics", "spectral_radius"),
    ("diagnostics", "stability_sweep"),
    ("experiments", "solve_spec"),
    ("experiments", "simulate_dataset"),
    ("experiments", "run_estimators"),
)

# Padé-13 scaling and squaring: six K x K products and one solve with K
# right-hand sides (LU 2/3 K^3 + triangular solves 2 K^3) before squaring.
_EXPM_BASE_FLOP = 6 * 2.0 + 2.0 / 3.0 + 2.0
_THETA13 = 5.371920351148152


def expm_flop(a):
    """Computed floating-point operation count of one `markov.expm` call."""
    a = np.asarray(a)
    k = float(a.shape[0])
    norm1 = float(np.linalg.norm(a, 1))
    squarings = int(np.ceil(np.log2(norm1 / _THETA13))) if norm1 > _THETA13 else 0
    return (_EXPM_BASE_FLOP + 2.0 * squarings) * k ** 3


class _Stat:
    __slots__ = ("calls", "self_s", "total_s", "depth")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.depth = 0


class Tracer:
    """Call counts, self and total time of the traced functions.

    Besides timings it keeps the counters the per-layer ratios need:
    expm operation count, solver iterations split into useful and wasted,
    and events simulated.
    """

    def __init__(self):
        self.stats = {f"{mod}.{name}": _Stat() for mod, name in TRACED}
        self.expm_flop = 0.0
        self.solve_iterations_ok = 0
        self.solve_iterations_failed = 0
        self.events_simulated = 0
        self.active = True      # False: wrappers call straight through
        self._stack = []        # child-time accumulators of open spans
        self._restore = []      # (owner, attribute, original) to undo

    # -- installation -----------------------------------------------------

    @staticmethod
    def _modules():
        return [m for name, m in sorted(sys.modules.items())
                if isinstance(m, ModuleType)
                and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def install(self):
        """Wrap every traced function wherever a ctgames module binds it."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        for mod_name, qualname in TRACED:
            module = sys.modules[f"{PACKAGE}.{mod_name}"]
            key = f"{mod_name}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(key, raw.__func__))
                else:
                    wrapped = self._wrap(key, raw)
                self._restore.append((cls, attr, raw))
                setattr(cls, attr, wrapped)
                continue
            original = getattr(module, qualname)
            wrapped = self._wrap(key, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapped)

    def uninstall(self):
        """Put every original binding back."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    # -- recording --------------------------------------------------------

    def _wrap(self, key, func):
        stat = self.stats[key]
        stack = self._stack
        clock = time.perf_counter
        after = {"markov.expm": self._after_expm,
                 "equilibrium.solve_mpe": self._after_solve,
                 "simulate.simulate_continuous": self._after_simulate}.get(key)

        def wrapper(*args, **kwargs):
            if not self.active:
                return func(*args, **kwargs)
            stack.append(0.0)
            stat.depth += 1
            start = clock()
            result = error = None
            try:
                result = func(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stat.depth -= 1
                stat.calls += 1
                if stat.depth == 0:
                    stat.total_s += elapsed
                stat.self_s += elapsed - children
                if stack:
                    stack[-1] += elapsed
                if after is not None:
                    after(args, kwargs, result, error)

        wrapper.__wrapped__ = func
        wrapper.__name__ = getattr(func, "__name__", key)
        wrapper.__doc__ = getattr(func, "__doc__", None)
        return wrapper

    def _after_expm(self, args, kwargs, result, error):
        if error is None:
            self.expm_flop += expm_flop(args[0] if args else kwargs["a"])

    def _after_solve(self, args, kwargs, result, error):
        if error is None:
            self.solve_iterations_ok += result.iterations
        elif getattr(error, "iterations", None) is not None:
            self.solve_iterations_failed += error.iterations

    def _after_simulate(self, args, kwargs, result, error):
        if error is None:
            self.events_simulated += result.n_events

    # -- report -----------------------------------------------------------

    def call_count(self, key):
        return self.stats[key].calls

    def metrics(self, passes, seconds):
        """Calls per pass, and self and total time as shares of ``seconds``,
        the traced passes' duration, for every traced function."""
        out = {}
        for key, stat in self.stats.items():
            out[f"{key}.calls"] = (stat.calls / passes, "count")
            out[f"{key}.self_share"] = (stat.self_s / seconds, "ratio")
            out[f"{key}.total_share"] = (stat.total_s / seconds, "ratio")
        attempted = self.solve_iterations_ok + self.solve_iterations_failed
        out["markov.expm.gflop"] = (self.expm_flop / 1e9 / passes, "Gflop")
        out["equilibrium.solve_mpe.iterations"] = (attempted / passes, "count")
        out["equilibrium.solve_mpe.useful_ratio"] = (
            self.solve_iterations_ok / attempted if attempted else 1.0, "ratio")
        sim = self.stats["simulate.simulate_continuous"].total_s
        out["simulate.events_per_s"] = (
            self.events_simulated / sim if sim > 0 else 0.0, "1/s")
        return out
