"""RunSpec: the one description of a classification run.

``RunSpec.from_doc`` is the only validator (``repro run``, ``sweep``,
``worst-case`` and ``interaction`` build the document from their flags; a
served job document is one already), ``spec.manifest()`` is what a run
directory records, ``RunSpec.from_manifest`` reads it back (including the
``cli`` block older run directories carry), and ``spec.to_session()``
builds the :class:`~repro.core.session.BenchmarkSession`.  The fluent
session API stays for callers that bring their own models, data or tasks.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import ClassVar

__all__ = ["RunSpec"]

#: Synthetic-dataset image geometry of every classification run.
_IMAGE_SIZES = {"native_size": 48, "input_size": 32}


@dataclass(frozen=True)
class RunSpec:
    """A validated classification run; build one with :meth:`from_doc`.

    Every field is run identity except :attr:`EXECUTION`, which changes
    how a run executes, never what it computes: ``resume`` and ``worker``
    may override those.
    """

    model: str
    n: int
    train_frac: float
    epochs: int
    seed: int
    noises: tuple[str, ...]
    include_combined: bool
    batch_size: int | None
    shard_size: int | None
    workers: int | None
    mode: str
    retries: int
    #: Registry-resolved identity dicts, so ``"tent"`` and
    #: ``"tent:steps=1"`` are the same run.
    mitigation: tuple[dict, ...]

    task: ClassVar[str] = "cls"
    EXECUTION: ClassVar[tuple[str, ...]] = ("workers", "mode", "retries")

    @classmethod
    def from_doc(cls, doc: dict) -> "RunSpec":
        """Validate a run document (a served job's run fields; absent ones
        take their defaults).  Raises ``ValueError`` naming the bad field.
        """
        accepted = ["task"] + [f.name for f in dataclasses.fields(cls)]
        unknown = sorted(set(doc) - set(accepted))
        if unknown:
            raise ValueError(f"unknown spec field(s) {unknown}; "
                             f"accepted: {accepted}")
        task = doc.get("task", cls.task)
        if task != cls.task:
            raise ValueError(f"only task 'cls' is servable today, "
                             f"got {task!r}")
        from repro.models import model_names
        model = doc.get("model", "resnet18x0.25")
        if model not in model_names():
            raise ValueError(f"unknown model {model!r} (see GET /v1/tasks "
                             f"or `repro list-models`)")
        mode = doc.get("mode", "thread")
        if mode not in ("thread", "process"):
            raise ValueError(f"mode must be 'thread' or 'process', "
                             f"got {mode!r}")
        return cls(
            model=model,
            n=number_field(doc, "n", 240, lo=8, hi=100_000),
            train_frac=number_field(doc, "train_frac", 0.75, lo=0.1, hi=0.95,
                                    integer=False),
            epochs=number_field(doc, "epochs", 15, lo=1, hi=10_000),
            seed=number_field(doc, "seed", 0, lo=0, hi=2**31 - 1),
            noises=_noises(doc.get("noises")),
            include_combined=bool(doc.get("include_combined", True)),
            batch_size=number_field(doc, "batch_size", None, lo=1, hi=4096),
            shard_size=number_field(doc, "shard_size", None, lo=1,
                                    hi=100_000),
            workers=number_field(doc, "workers", None, lo=1, hi=256),
            mode=mode,
            retries=number_field(doc, "retries", 0, lo=0, hi=16),
            mitigation=_mitigations(doc.get("mitigation"), cls.task))

    def doc(self) -> dict:
        """The canonical document: :meth:`from_doc` of it is this spec."""
        return {"task": self.task, **dataclasses.asdict(self),
                "noises": list(self.noises),
                "mitigation": list(self.mitigation)}

    @property
    def skip(self) -> tuple[str, ...]:
        """Noises the model cannot express: ceil-mode only exists on zoo
        models with a max-pool."""
        from repro.models import MODEL_ZOO
        zoo = {s.name: s for s in MODEL_ZOO}
        return () if zoo[self.model].has_maxpool else ("ceil_mode",)

    @property
    def data_kw(self) -> dict:
        """Keyword arguments of the synthetic dataset (run identity)."""
        return {"n": self.n, "train_frac": self.train_frac, **_IMAGE_SIZES}

    def manifest(self, **extra) -> dict:
        """The manifest a :meth:`to_session` run records, built without a
        session (no dataset is synthesised); ``extra`` adds top-level
        fields, e.g. the server's ``serve`` block."""
        from .runstore import run_manifest
        from .tasks import get_task
        return run_manifest(
            task=self.task, model=self.model, seed=self.seed,
            noises=self.noises, skip=self.skip,
            include_combined=self.include_combined,
            metric=get_task(self.task).metric_name,
            eval_geometry={"batch_size": self.batch_size,
                           "shard_size": self.shard_size},
            mitigations=list(self.mitigation), **self._recorded(), **extra)

    def _recorded(self) -> dict:
        """Manifest fields a session does not derive from its own state."""
        return {"data": self.data_kw, "epochs": self.epochs,
                "execution": {f: getattr(self, f) for f in self.EXECUTION}}

    @classmethod
    def from_manifest(cls, manifest: dict) -> "RunSpec":
        """The spec a run manifest records, in the current shape or the
        older ``cli`` block.  Raises ``ValueError`` when it records none,
        or a value :meth:`from_doc` refuses.
        """
        cli = manifest.get("cli")
        if isinstance(cli, dict) and "data" in cli:      # the older shape
            manifest = {
                **manifest, "data": cli["data"],
                "epochs": cli.get("fit", {}).get("epochs", 15),
                "eval_geometry": {"batch_size": cli.get("batch_size"),
                                  "shard_size": cli.get("shard_size")},
                "execution": {"workers": cli.get("workers"),
                              "mode": cli.get("mode") or "thread",
                              "retries": cli.get("retries", 0)}}
        if not all(k in manifest for k in ("data", "epochs", "execution")):
            raise ValueError(
                "the manifest records no run spec: the run was made through "
                "the Python API (resume it by re-running its script with "
                ".store(...)), or its manifest was rebuilt by `repro fsck "
                "--repair`")
        data = manifest["data"]
        return cls.from_doc({
            "model": manifest["model"], "n": data.get("n"),
            "train_frac": data.get("train_frac"),
            "epochs": manifest["epochs"], "seed": manifest["seed"],
            "noises": manifest["noises"],
            "include_combined": manifest.get("include_combined", True),
            **manifest.get("eval_geometry", {}), **manifest["execution"],
            "mitigation": manifest.get("mitigations", [])})

    def to_session(self, store=None, run_id: str | None = None):
        """The :class:`~repro.core.session.BenchmarkSession` of this spec
        (synthesises the dataset), attached to run ``run_id`` of ``store``
        when given: a new run records :meth:`manifest`, an existing one
        must match it on every identity field.
        """
        from .session import BenchmarkSession
        session = (BenchmarkSession()
                   .task(self.task)
                   .seed(self.seed)
                   .workers(self.workers, mode=self.mode)
                   .batch(self.batch_size)
                   .shards(self.shard_size)
                   .retries(self.retries)
                   .model(self.model)
                   .data(**self.data_kw)
                   .noises(*self.noises)
                   .skip(*self.skip)
                   .combined(self.include_combined))
        for mit in self.mitigation:
            session.mitigate(mit["name"], **mit["params"])
        if store is not None:
            session.store(store, run_id=run_id, **self._recorded())
        return session


def number_field(doc: dict, key: str, default, *, lo, hi, integer=True):
    """``doc[key]`` (or ``default``) checked to be a number in [lo, hi];
    an integer field may also be None."""
    value = doc.get(key, default)
    if value is None and integer:
        return None
    if (isinstance(value, bool)
            or not isinstance(value, int if integer else (int, float))):
        raise ValueError(f"{key} must be "
                         f"{'an integer' if integer else 'a number'}")
    if not lo <= value <= hi:
        raise ValueError(f"{key} must be in [{lo}, {hi}], got {value}")
    return value if integer else float(value)


def _noises(noises) -> tuple[str, ...]:
    from .registry import CLS_NOISES
    if noises is None:
        noises = list(CLS_NOISES)
    if (not isinstance(noises, (list, tuple)) or not noises
            or not all(isinstance(n, str) for n in noises)):
        raise ValueError("noises must be a non-empty list of noise names")
    bad = sorted(set(noises) - set(CLS_NOISES))
    if bad:
        raise ValueError(f"unknown classification noise(s) {bad}; "
                         f"choose from {list(CLS_NOISES)}")
    return tuple(noises)


def _mitigations(raw, task: str) -> tuple[dict, ...]:
    """Spec strings (``"tent:steps=2"``) or identity dicts, resolved."""
    if not raw:
        return ()
    if not isinstance(raw, (list, tuple)):
        raise ValueError("mitigation must be a list of spec strings, e.g. "
                         '["tent:steps=2", "augment:augmix"] — see GET '
                         "/v1/mitigations")
    from .mitigations import get_mitigation, mitigation_identity
    identities: list[dict] = []
    for item in raw:
        try:
            if isinstance(item, str):
                name, params = _parse_mitigation(item)
            elif isinstance(item, dict):       # manifests, stored job specs
                name, params = item.get("name", ""), item.get("params", {})
            else:
                raise ValueError(f"mitigation entries must be spec strings, "
                                 f"got {item!r}")
            if task not in get_mitigation(name).tasks:
                raise ValueError(f"mitigation {name!r} does not support "
                                 f"task {task!r}")
            identity = mitigation_identity(name, **params)
        except TypeError as exc:
            raise ValueError(str(exc)) from exc
        if identity in identities:
            raise ValueError(f"duplicate mitigation {item!r}")
        identities.append(identity)
    return tuple(identities)


def _parse_mitigation(text: str) -> tuple[str, dict]:
    """``name[:key=val,...]`` → ``(name, params)`` with coerced values;
    ``augment:augmix:lr=0.2`` → ``("augment:augmix", {"lr": 0.2})``.
    """
    name, params = text, {}
    head, _, tail = text.rpartition(":")
    if "=" in tail:
        name = head
        for pair in tail.split(","):
            key, eq, raw = pair.partition("=")
            if not eq or not key:
                raise ValueError(f"malformed mitigation parameter {pair!r} "
                                 f"in {text!r} (expected key=value)")
            params[key] = _coerce(raw)
    if not name:
        raise ValueError(f"malformed mitigation spec {text!r}")
    return name, params


def _coerce(raw: str):
    if raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    return raw
