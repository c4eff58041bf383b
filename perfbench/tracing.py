"""Outside-in spans around the names sik's modules call.

Nothing inside the package is edited.  While a Tracer is installed, it
replaces module attributes with timing wrappers and puts every original back
when it is removed:

* a sik function, named after the module that defines it, is wrapped at
  every binding any loaded ``sik`` module holds (``sik.certified_index``,
  ``sik.certify.certified_index``, ``sik.cli.certified_index``, ...);
* a numpy/scipy routine is named after the sik module that calls it, and
  wrapped only there: that module's ``np``/``scipy`` global is swapped for
  a proxy whose one attribute is wrapped;
* ``cli.certified_index`` wraps only the cli binding, so the sweep's rows
  show up as their own span around ``certify.certified_index``.

Each thread keeps its own span stack (the sweep runs rows on a pool), so a
span's self time is its duration minus that of the spans it caused in the
same thread.  A name missing from the package is reported as absent.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time

# (span name, module, attribute path).  A dotted path reaches a numpy/scipy
# routine through that module's global; a bare name is a sik function.
SPANS = (
    ("operator_assembly.assemble_A", "sik.operator_assembly", "assemble_A"),
    ("operator_assembly.constant_M", "sik.operator_assembly", "constant_M"),
    ("certify.certified_index", "sik.certify", "certified_index"),
    ("certify.exact_axis_split", "sik.certify", "exact_axis_split"),
    ("certify.cross_validate", "sik.certify", "cross_validate"),
    ("certify.eigvalsh", "sik.certify", "np.linalg.eigvalsh"),
    ("certify.svd", "sik.certify", "np.linalg.svd"),
    ("lyapunov.solve_lyapunov_core", "sik.lyapunov", "solve_lyapunov_core"),
    ("lyapunov.schur", "sik.lyapunov", "scipy.linalg.schur"),
    ("lyapunov.trsyl", "sik.lyapunov", "scipy.linalg.get_lapack_funcs"),
    ("norms_estimates.estimate_triple_U", "sik.norms_estimates", "estimate_triple_U"),
    ("norms_estimates.svdvals", "sik.norms_estimates", "scipy.linalg.svdvals"),
    ("index.inertia_hermitian", "sik.index", "inertia_hermitian"),
    ("index.eigvalsh", "sik.index", "scipy.linalg.eigvalsh"),
    ("index.count_half_plane", "sik.index", "count_half_plane"),
    ("index.instability_index_general", "sik.index", "instability_index_general"),
    ("index.schur", "sik.index", "scipy.linalg.schur"),
    ("index.eig", "sik.index", "np.linalg.eig"),
    ("index.inv", "sik.index", "np.linalg.inv"),
    # after certify.certified_index, so it wraps that span's wrapper
    ("cli.certified_index", "sik.cli", "certified_index"),
)
SPAN_NAMES = tuple(name for name, _, _ in SPANS)

_CERTIFY = "certify.certified_index"
_SOLVE = "lyapunov.solve_lyapunov_core"
_TRSYL = "lyapunov.trsyl"


def _sik_modules():
    return [(name, mod) for name, mod in list(sys.modules.items())
            if mod is not None and (name == "sik" or name.startswith("sik."))]


def assert_clean():
    """Raise if any loaded sik module still holds a span wrapper or proxy."""
    for mod_name, mod in _sik_modules():
        for key, value in vars(mod).items():
            if isinstance(value, _Proxy) or callable(value) and hasattr(value, "span_name"):
                raise RuntimeError(f"{mod_name}.{key} is still wrapped")


class _Proxy:
    """Stands in for a module; attributes set on it shadow the module's."""

    def __init__(self, target):
        self._target = target

    def __getattr__(self, name):
        return getattr(self._target, name)


class _Frame:
    __slots__ = ("name", "child_s", "solve_sizes")

    def __init__(self, name):
        self.name = name
        self.child_s = 0.0
        self.solve_sizes = []


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore = []
        self.absent = []
        self.reset()

    def reset(self):
        """Forget everything recorded so far (wrappers stay installed)."""
        with self._lock:
            self.spans = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
            self.n_final_sum = 0
            self.final_n3 = 0
            self.certify_n3 = 0
            self.iterations = 0
            self.solve_sizes = []

    # -- installing ----------------------------------------------------

    def install(self):
        # import every module first, so that wrapping a function finds all
        # of its bindings
        modules = {}
        for _, module_name, _ in SPANS:
            try:
                modules[module_name] = importlib.import_module(module_name)
            except ImportError:
                modules[module_name] = None
        self.absent = []
        for name, module_name, path in SPANS:
            module = modules[module_name]
            try:
                if module is None:
                    raise AttributeError(module_name)
                if "." in path:
                    self._wrap_routine(name, module, path.split("."))
                else:
                    self._wrap_function(name, module, path)
            except AttributeError:
                self.absent.append(name)

    def remove(self):
        """Put back every replaced attribute, newest first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    def _replace(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap_function(self, name, module, attr):
        fn = getattr(module, attr)
        wrapped = self._wrap(name, fn)
        if getattr(fn, "__module__", None) != module.__name__:
            self._replace(module, attr, wrapped)  # this module's binding only
            return
        for _, mod in _sik_modules():
            for key, value in list(vars(mod).items()):
                if value is fn:
                    self._replace(mod, key, wrapped)

    def _wrap_routine(self, name, module, parts):
        owner = module
        for i, part in enumerate(parts[:-1]):
            current = getattr(owner, part)
            if not isinstance(current, _Proxy):
                current = _Proxy(current)
                if i == 0:
                    self._replace(owner, part, current)
                else:
                    setattr(owner, part, current)  # lives on a proxy
            owner = current
        fn = getattr(owner, parts[-1])
        if name == _TRSYL:
            wrapped = self._wrap_lapack_lookup(fn)
        else:
            wrapped = self._wrap(name, fn)
        setattr(owner, parts[-1], wrapped)

    def _wrap_lapack_lookup(self, get_lapack_funcs):
        """get_lapack_funcs whose ?trsyl results are timed as lyapunov.trsyl."""

        def lookup(*args, **kwargs):
            funcs = get_lapack_funcs(*args, **kwargs)
            if isinstance(funcs, (tuple, list)):
                return type(funcs)(self._trsyl_or_same(f) for f in funcs)
            return self._trsyl_or_same(funcs)

        return lookup

    def _trsyl_or_same(self, f):
        # f2py names these "function ztrsyl"; the first letter is the type
        name = (getattr(f, "__name__", "") or "").split()
        if name and name[-1][1:] == "trsyl":
            return self._wrap(_TRSYL, f)
        return f

    # -- recording -----------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        tracer = self

        def span(*args, **kwargs):
            stack = tracer._stack()
            frame = _Frame(name)
            if name == _SOLVE and args:
                tracer._note_solve(stack, args[0])
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1].child_s += elapsed
                with tracer._lock:
                    entry = tracer.spans[name]
                    entry[0] += 1
                    entry[1] += elapsed
                    entry[2] += elapsed - frame.child_s
            if name == _CERTIFY:
                tracer._note_certificate(frame, result)
            return result

        span.__wrapped__ = fn
        span.span_name = name
        return span

    def _note_solve(self, stack, A):
        n = int(A.shape[0])
        with self._lock:
            self.solve_sizes.append(n)
        for frame in reversed(stack):
            if frame.name == _CERTIFY:
                frame.solve_sizes.append(n)
                break

    def _note_certificate(self, frame, cert):
        sizes = frame.solve_sizes
        with self._lock:
            self.iterations += len(sizes)
            self.n_final_sum += int(getattr(cert, "N_final", 0) or 0)
            self.certify_n3 += sum(n**3 for n in sizes)
            self.final_n3 += sizes[-1] ** 3 if sizes else 0

    # -- reading -------------------------------------------------------

    def snapshot(self):
        """Span table and exact counts recorded since the last reset."""
        with self._lock:
            spans = {name: tuple(v) for name, v in self.spans.items()}
            counts = {
                "certify.iterations": self.iterations,
                "certify.N_final": self.n_final_sum,
                "certify.final_solve_share": (
                    self.final_n3 / self.certify_n3 if self.certify_n3 else 0.0
                ),
                "lyapunov.solves": len(self.solve_sizes),
                "lyapunov.n_max": max(self.solve_sizes, default=0),
                "lyapunov.work_n3": sum(n**3 for n in self.solve_sizes),
            }
        return spans, counts
