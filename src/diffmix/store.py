"""The chain's data and its two files: ChainState with the one layout
rule of its arrays (_broken_invariant), the draws archive
(PosteriorDraws) and checkpoints, both archive.py containers that store
each draw's own component rows (_pack, _unpack).

A sampler configuration is read by attribute only, so this module never
imports gibbs at run time.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from typing import TYPE_CHECKING

import numpy as np

from .archive import Rows, read_container, write_container
from .errors import DataError

if TYPE_CHECKING:
    from .data import TimeGridDataset
    from .gibbs import SamplerConfig

MH_TARGET_ACCEPT = 0.44
DRAWS_FORMAT, ARCHIVE_VERSION = "diffmix-draws", 2
CHECKPOINT_FORMAT, CHECKPOINT_VERSION = "diffmix-checkpoint", 4

# ChainState arrays holding one row per component, in _prior_components order
_COMPONENTS = ("sticks", "trans_o", "trans_k", "trans_d", "atoms")
# ChainState arrays a checkpoint stores
_STATE_ARRAYS = ("s", "u", *_COMPONENTS)
# PosteriorDraws arrays besides times; a checkpoint stores them as draws_<name>
_DRAW_ARRAYS = ("m", "theta", "c", "sticks", "atom_mean", "atom_prec")
# the _DRAW_ARRAYS with one row per component: each draw's own m rows are
# stored stacked, (sum of m, ...), and NaN-padded to the largest m in memory
_ROW_ARRAYS = ("sticks", "atom_mean", "atom_prec")


@dataclass
class MHAdaptation:
    """Adaptive random-walk state for the two hyperparameter moves; each
    move, named "theta" or "c", owns the fields ending in its name."""

    log_step_theta: float = math.log(0.5)
    log_step_c: float = math.log(0.5)
    proposals_theta: int = 0
    accepts_theta: int = 0
    proposals_c: int = 0
    accepts_c: int = 0

    def record(self, move: str, accepted: bool, adapt: bool) -> None:
        """Count one proposal of move and, while adapt holds, step its log
        step size toward MH_TARGET_ACCEPT with diminishing gain n^-0.6."""
        n = getattr(self, "proposals_" + move) + 1
        setattr(self, "proposals_" + move, n)
        setattr(self, "accepts_" + move,
                getattr(self, "accepts_" + move) + int(accepted))
        if adapt:
            setattr(self, "log_step_" + move, getattr(self, "log_step_" + move)
                    + n ** -0.6 * (int(accepted) - MH_TARGET_ACCEPT))

    def rate_theta(self) -> float:
        return self.accepts_theta / max(1, self.proposals_theta)

    def rate_c(self) -> float:
        return self.accepts_c / max(1, self.proposals_c)


@dataclass
class ChainState:
    """Mutable Gibbs state.

    s stores 0-based memberships; the label entering psi is s + 1.
    trans_* hold one (o, k, d) triple per stick and per consecutive-time
    transition, shape (m, n_times - 1). Only the first m components exist;
    nothing beyond index m - 1 is ever stored or read. data_digest names
    the dataset the chain runs on, so a checkpoint resumes only on it.
    """

    m: int
    s: np.ndarray
    u: np.ndarray
    sticks: np.ndarray
    atoms: np.ndarray
    trans_o: np.ndarray
    trans_k: np.ndarray
    trans_d: np.ndarray
    theta: float
    c: float
    mh: MHAdaptation = field(default_factory=MHAdaptation)
    sweep: int = 0
    data_digest: str = ""


def slice_bounds(y: np.ndarray, eta: float) -> np.ndarray:
    """floor(-log(y) / eta): floor(psi_inv(u)) at slice_eta, floor(g_inv(o))
    at trans_slice_eta. Floats, so a bound past int64 still meets the cap."""
    return np.floor(-np.log(y) / eta)


def _broken_invariant(arrays, m: int, cfg: SamplerConfig,
                      data: TimeGridDataset):
    """(name, rule) of the first state array breaking the layout of a
    chain with m components on data, or None: shapes and dtypes first,
    then value rules, each only once those before it hold, so psi and g
    never see an s or d out of range."""
    n, ints, reals = data.n_times, ("iu", "integers"), ("f", "reals")
    layout = {"s": ((data.n_obs,), ints), "u": ((data.n_obs,), reals),
              "sticks": ((m, n), reals), "trans_o": ((m, n - 1), reals),
              "trans_k": ((m, n - 1), ints), "trans_d": ((m, n - 1), ints),
              "atoms": ((m, 2), reals)}
    for name, (shape, (kinds, what)) in layout.items():
        arr = arrays[name]
        if arr.shape != shape or arr.dtype.kind not in kinds:
            return name, (f"has {arr.dtype} shape {arr.shape}, expected "
                          f"{what} of shape {shape} for m = {m} on this "
                          "dataset")
    s, u, v, o, k, d, atoms = (arrays[name] for name in _STATE_ARRAYS)
    rules = (
        ("s", f"outside 0..{m - 1}", lambda: (s >= 0) & (s < m)),
        ("u", "outside (0, psi(s + 1))",
         lambda: (u > 0.0) & (u < np.exp(-cfg.slice_eta * (s + 1.0)))),
        ("sticks", "outside (0, 1)", lambda: (v > 0.0) & (v < 1.0)),
        ("trans_d", "negative", lambda: d >= 0),
        ("trans_k", "outside 0..d", lambda: (k >= 0) & (k <= d)),
        ("trans_o", "outside (0, g(d))",
         lambda: (o > 0.0) & (o < np.exp(-cfg.trans_slice_eta * d))),
        ("atoms", "not finite with positive precisions",
         lambda: np.isfinite(atoms) & (atoms[:, 1:] > 0.0)),
    )
    return next(((name, rule) for name, rule, holds in rules
                 if not np.all(holds())), None)


@dataclass(frozen=True)
class PosteriorDraws:
    """Thinned post-burn-in snapshots of the measure and hyperparameters.

    Component arrays are padded with NaN beyond each draw's own
    truncation level, recorded in m; the archive stores only each
    draw's own rows.
    """

    times: np.ndarray
    m: np.ndarray
    theta: np.ndarray
    c: np.ndarray
    sticks: np.ndarray
    atom_mean: np.ndarray
    atom_prec: np.ndarray
    config_json: str = ""
    config_digest: str = ""

    @property
    def n_draws(self) -> int:
        return len(self.m)

    @classmethod
    def from_snapshots(cls, times, snapshots, cfg: SamplerConfig):
        if not snapshots:
            raise ValueError("no snapshots collected")
        ms = [len(snap["sticks"]) for snap in snapshots]
        rows = {}
        for name in _ROW_ARRAYS:
            rows[name], parts = _padded(ms, snapshots[0][name].shape[1:])
            for part, snap in zip(parts, snapshots):
                part[...] = snap[name]
        return cls(times=np.asarray(times, dtype=float),
                   m=np.array(ms, dtype=np.int64),
                   theta=np.array([snap["theta"] for snap in snapshots],
                                  dtype=float),
                   c=np.array([snap["c"] for snap in snapshots], dtype=float),
                   **rows,
                   config_json=cfg.to_json(), config_digest=cfg.digest())

    def save(self, path) -> None:
        meta = {"format": DRAWS_FORMAT, "version": ARCHIVE_VERSION,
                "config": self.config_json, "config_digest": self.config_digest}
        write_container(path, meta, {"times": self.times, **_pack(
            _snapshots(vars(self)), self.sticks.shape[2])})

    @classmethod
    def load(cls, path) -> "PosteriorDraws":
        """Read a draws archive; DataError unless every array is present,
        the shapes agree and each draw's own components are valid."""
        meta, arrays = read_container(
            path, DRAWS_FORMAT, ARCHIVE_VERSION, ("times", *_DRAW_ARRAYS),
            "re-run diffmix fit to write the draws at this version",
            rows=_unpack(path))
        _check_draws(path, arrays)
        if len(arrays["m"]) < 1:
            raise DataError(f"{path}: holds no draw; an archive needs at "
                            "least one draw")
        return cls(**arrays, config_json=meta.get("config", ""),
                   config_digest=meta.get("config_digest", ""))


def _padded(ms: list[int], row_shape: tuple) -> tuple[np.ndarray, list]:
    """A NaN array (draws, largest m, *row_shape) and the view of each
    draw's own m rows in it."""
    out = np.full((len(ms), max(ms, default=0), *row_shape), np.nan)
    return out, [out[i, :k] for i, k in enumerate(ms)]


def _snapshots(draws: dict) -> list[dict]:
    """Each draw of NaN-padded _DRAW_ARRAYS as a snapshot: its theta, its
    c and views of its own m rows."""
    return [{"theta": theta, "c": c,
             **{name: draws[name][i, :k] for name in _ROW_ARRAYS}}
            for i, (k, theta, c) in enumerate(zip(
                draws["m"].tolist(), draws["theta"].tolist(),
                draws["c"].tolist()))]


def _pack(snapshots: list[dict], n_times: int, prefix: str = "") -> dict:
    """The draws members of a file, named prefix + each of _DRAW_ARRAYS:
    m, theta and c, and each _ROW_ARRAYS member as the snapshots' own
    rows stacked, (sum of m, ...), which write_container streams from
    the snapshots' arrays with no stacked copy."""
    members = {"m": np.array([len(snap["sticks"]) for snap in snapshots],
                             dtype=np.int64),
               "theta": np.array([snap["theta"] for snap in snapshots],
                                 dtype=float),
               "c": np.array([snap["c"] for snap in snapshots], dtype=float)}
    for name in _ROW_ARRAYS:
        members[name] = Rows([snap[name] for snap in snapshots],
                             (n_times,) if name == "sticks" else ())
    return {prefix + name: value for name, value in members.items()}


def _unpack(where, prefix: str = "") -> dict:
    """read_container's readers of the _ROW_ARRAYS members named prefix +
    name: each reads its stacked rows straight into a NaN-padded
    (draws, largest m, ...) array, once the m read before it holds one
    positive integer per draw and sums to the member's float64 rows.
    DataError messages are led by where."""
    def read(name, dtype, shape, arrays):
        m = arrays[prefix + "m"]
        if m.ndim != 1 or m.dtype.kind not in "iu":
            raise DataError(f"{where}: m must hold one integer per draw "
                            f"(found {m.dtype} shape {m.shape})")
        if np.any(m < 1):
            draw = int(np.argmax(m < 1))
            raise DataError(f"{where}: draw {draw} (m = {m[draw]}): m "
                            "below 1")
        total = int(m.sum())
        if dtype != np.float64 or shape[:1] != (total,):
            raise DataError(f"{where}: m sums to {total} but "
                            f"{name[len(prefix):]} holds {dtype} shape "
                            f"{shape}; it needs {total} float64 rows")
        return _padded(m.tolist(), shape[1:])
    return {prefix + name: read for name in _ROW_ARRAYS}


def _check_draws(where, arrays: dict[str, np.ndarray]) -> None:
    """Raise DataError, its message led by where, naming the draw and the
    array that breaks the draws layout as _unpack leaves it: theta and c
    one per draw, sticks (d, M, times) and atoms (d, M), and within each
    draw's m sticks in (0, 1), finite atom means, positive finite
    precisions, and theta and c finite and positive."""
    m, sticks = arrays["m"], arrays["sticks"]
    d, width = len(m), sticks.shape[1] if sticks.ndim == 3 else -1
    shapes = {"times": (arrays["times"].size,), "theta": (d,), "c": (d,),
              "sticks": (d, width, arrays["times"].size),
              "atom_mean": (d, width), "atom_prec": (d, width)}
    for name, shape in shapes.items():
        if arrays[name].shape != shape or arrays[name].dtype.kind not in "iuf":
            raise DataError(f"{where}: {name} has {arrays[name].dtype} shape "
                            f"{arrays[name].shape}, expected real numbers of "
                            f"shape {shape}")
    own = np.arange(width) < m[:, None]
    finite_positive = {name: np.isfinite(arrays[name]) & (arrays[name] > 0)
                       for name in ("theta", "c", "atom_prec")}
    checks = [
        ("theta", "not finite and positive", ~finite_positive["theta"]),
        ("c", "not finite and positive", ~finite_positive["c"]),
        ("sticks", "outside (0, 1) within its m",
         own & ~np.all((sticks > 0) & (sticks < 1), axis=2)),
        ("atom_mean", "not finite within its m",
         own & ~np.isfinite(arrays["atom_mean"])),
        ("atom_prec", "not finite and positive within its m",
         own & ~finite_positive["atom_prec"]),
    ]
    for name, what, bad in checks:
        if np.any(bad):
            draw = int(np.flatnonzero(bad.reshape(d, -1).any(axis=1))[0])
            raise DataError(f"{where}: draw {draw} (m = {m[draw]}): {name} "
                            f"{what}")


def _snapshot(state: ChainState) -> dict:
    return {"sticks": state.sticks.copy(),
            "atom_mean": state.atoms[:, 0].copy(),
            "atom_prec": state.atoms[:, 1].copy(),
            "theta": state.theta, "c": state.c}


def save_checkpoint(path, state: ChainState, rng: np.random.Generator,
                    cfg: SamplerConfig, snapshots: list[dict]) -> None:
    """Freeze the chain, generator and collected snapshots to disk, each
    snapshot's rows streamed from its own arrays."""
    meta = {
        "format": CHECKPOINT_FORMAT, "version": CHECKPOINT_VERSION,
        "config_digest": cfg.digest(), "sweep": state.sweep,
        "m": state.m, "theta": state.theta, "c": state.c,
        "mh": asdict(state.mh), "data_digest": state.data_digest,
        "rng_state": rng.bit_generator.state,
    }
    arrays = {name: getattr(state, name) for name in _STATE_ARRAYS}
    arrays.update(_pack(snapshots, state.sticks.shape[1], "draws_"))
    write_container(path, meta, arrays)


def _number(x, low: float, kinds: tuple = (int, float)):
    """x if a finite number of a type in kinds above low, else ValueError."""
    if not (type(x) in kinds and math.isfinite(x) and x > low):
        raise ValueError(f"not a finite {kinds[0].__name__} above {low}")
    return x


def _generator(bit_state) -> np.random.Generator:
    rng = np.random.default_rng()
    rng.bit_generator.state = bit_state
    return rng


def _adaptation(x) -> MHAdaptation:
    """MHAdaptation from exactly its six fields: finite log steps and
    non-negative integer counters with accepts at most proposals."""
    names = [f.name for f in fields(MHAdaptation)]
    if not isinstance(x, dict) or set(x) != set(names):
        raise ValueError(f"needs exactly the fields {', '.join(names)}")
    mh = MHAdaptation(**{
        name: _number(x[name], -math.inf) if name.startswith("log_step_")
        else _number(x[name], -1, (int,)) for name in names})
    if mh.accepts_theta > mh.proposals_theta or mh.accepts_c > mh.proposals_c:
        raise ValueError("more accepts than proposals")
    return mh


# the parser of each checkpoint meta value besides format and version
_CHECKPOINT_META = {
    "config_digest": str, "data_digest": str, "rng_state": _generator,
    "sweep": lambda x: _number(x, -1, (int,)),
    "m": lambda x: _number(x, 0, (int,)),
    "theta": lambda x: float(_number(x, 0)),
    "c": lambda x: float(_number(x, 0)),
    "mh": _adaptation}


def load_checkpoint(path, cfg: SamplerConfig, data: TimeGridDataset):
    """Restore (state, rng, snapshots) to resume on data; DataError names
    a bad meta key, state array or draws array."""
    meta, arrays = read_container(
        path, CHECKPOINT_FORMAT, CHECKPOINT_VERSION,
        (*_STATE_ARRAYS, *("draws_" + name for name in _DRAW_ARRAYS)),
        "drop --resume to start the chain afresh",
        rows=_unpack(f"{path}: checkpoint draws", "draws_"))
    values = {}
    for key, parse in _CHECKPOINT_META.items():
        if key not in meta:
            raise DataError(f"{path}: checkpoint meta lacks {key}")
        try:
            values[key] = parse(meta[key])
        except (LookupError, TypeError, ValueError, OverflowError) as exc:
            raise DataError(f"{path}: checkpoint meta {key} = "
                            f"{meta[key]!r} is malformed ({exc})") from exc
    if values.pop("config_digest") != cfg.digest():
        raise DataError(
            f"{path}: checkpoint was written under a different configuration"
        )
    if values["data_digest"] != data.digest():
        raise DataError(f"{path}: written for another dataset; resume on "
                        "that dataset")
    broken = _broken_invariant(arrays, values["m"], cfg, data)
    if broken is not None:
        raise DataError("{}: checkpoint {} {}".format(path, *broken))
    d = {name: arrays["draws_" + name] for name in _DRAW_ARRAYS}
    _check_draws(f"{path}: checkpoint draws", {"times": data.times, **d})
    collected = max(0, values["sweep"] - cfg.burn_in) // cfg.thin
    if len(d["m"]) != collected:
        raise DataError(f"{path}: checkpoint holds {len(d['m'])} draws; "
                        f"sweep {values['sweep']} has collected {collected}")
    rng = values.pop("rng_state")
    state = ChainState(**{name: arrays[name] for name in _STATE_ARRAYS},
                       **values)
    return state, rng, _snapshots(d)
