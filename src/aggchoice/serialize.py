"""Versioned JSON manifests for every domain object.

One manifest file carries an aggregate space plus any of: a stochastic
choice table, a preference distribution (rankings best to worst), a
composition distribution (tuples as sorted arrays of sorted arrays), an
aggregation correspondence, and a utility map.  Encoding is canonical
(sorted keys, two-space indent), so re-printing a parsed manifest is
byte-identical.
"""

from __future__ import annotations

import contextlib
import errno
import json
import os
import stat
from dataclasses import dataclass, field

from .errors import AggChoiceError
from .model import (
    AggregateSpace,
    AggregationCorrespondence,
    CompositionDistribution,
    CompositionTuple,
    LinearOrder,
    Menu,
    PreferenceDistribution,
    StochasticChoice,
)

FORMAT = "aggchoice/1"


class ManifestError(AggChoiceError):
    """The manifest file is malformed or internally inconsistent."""


@dataclass(frozen=True)
class Manifest:
    space: AggregateSpace
    correspondence: AggregationCorrespondence | None = None
    choice: StochasticChoice | None = None
    preferences: PreferenceDistribution | None = None
    composition: CompositionDistribution | None = None
    utilities: dict[str, float] | None = None
    metadata: dict = field(default_factory=dict)


def _encode_menu(menu: Menu, space: AggregateSpace) -> list[str]:
    return list(space.sort(menu))


def _encode_tuple(t: CompositionTuple) -> list:
    return [[a, sorted(s)] for a, s in t.parts]


def _decode_tuple(data: list) -> CompositionTuple:
    return CompositionTuple.of({a: frozenset(members) for a, members in data})


def to_dict(manifest: Manifest) -> dict:
    space = manifest.space
    out: dict = {
        "format": FORMAT,
        "space": {"atomic": list(space.atomic), "non_atomic": list(space.non_atomic)},
    }
    if manifest.correspondence is not None:
        out["correspondence"] = {
            a: list(xs) for a, xs in manifest.correspondence.mapping.items()
        }
    if manifest.choice is not None:
        out["stochastic_choice"] = [
            {
                "menu": _encode_menu(menu, space),
                "probs": {a: manifest.choice.prob(menu, a) for a in space.sort(menu)},
            }
            for menu in manifest.choice.menus
        ]
    if manifest.preferences is not None:
        out["preference_distribution"] = [
            {"ranking": list(order.ranking), "weight": w}
            for order, w in sorted(
                manifest.preferences.items(), key=lambda kv: kv[0].ranking
            )
        ]
    if manifest.composition is not None:
        menus = sorted(manifest.composition.menus(), key=space.menu_key)
        out["composition_distribution"] = [
            {
                "menu": _encode_menu(menu, space),
                "tuples": [
                    {"parts": _encode_tuple(t), "weight": w}
                    for t, w in sorted(
                        manifest.composition.for_menu(menu).items(),
                        key=lambda kv: repr(_encode_tuple(kv[0])),
                    )
                ],
            }
            for menu in menus
        ]
    if manifest.utilities is not None:
        out["utilities"] = dict(sorted(manifest.utilities.items()))
    if manifest.metadata:
        out["metadata"] = manifest.metadata
    return out


def to_json(manifest: Manifest) -> str:
    return json.dumps(to_dict(manifest), sort_keys=True, indent=2) + "\n"


def from_dict(data: dict) -> Manifest:
    try:
        if data.get("format") != FORMAT:
            raise ManifestError(f"unsupported format {data.get('format')!r}")
        space = AggregateSpace(
            atomic=tuple(data["space"]["atomic"]),
            non_atomic=tuple(data["space"].get("non_atomic", ())),
        )
        correspondence = None
        if "correspondence" in data:
            correspondence = AggregationCorrespondence(
                space, {a: tuple(xs) for a, xs in data["correspondence"].items()}
            )
        choice = None
        if "stochastic_choice" in data:
            table = {
                frozenset(entry["menu"]): dict(entry["probs"])
                for entry in data["stochastic_choice"]
            }
            choice = StochasticChoice(space, table)
        preferences = None
        if "preference_distribution" in data:
            weights = {}
            for entry in data["preference_distribution"]:
                order = LinearOrder(tuple(entry["ranking"]))
                weights[order] = weights.get(order, 0.0) + entry["weight"]
            preferences = PreferenceDistribution(weights)
        composition = None
        if "composition_distribution" in data:
            per_menu = {}
            for entry in data["composition_distribution"]:
                per_menu[frozenset(entry["menu"])] = {
                    _decode_tuple(item["parts"]): item["weight"]
                    for item in entry["tuples"]
                }
            composition = CompositionDistribution(per_menu)
        utilities = dict(data["utilities"]) if "utilities" in data else None
        metadata = dict(data.get("metadata", {}))
    except ManifestError:
        raise
    except (KeyError, TypeError, ValueError) as err:
        raise ManifestError(f"malformed manifest: {err}") from err
    except AggChoiceError as err:
        raise ManifestError(f"invalid manifest contents: {err}") from err
    return Manifest(
        space=space,
        correspondence=correspondence,
        choice=choice,
        preferences=preferences,
        composition=composition,
        utilities=utilities,
        metadata=metadata,
    )


def from_json(text: str) -> Manifest:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ManifestError(f"not valid JSON: {err}") from err
    if not isinstance(data, dict):
        raise ManifestError("manifest must be a JSON object")
    return from_dict(data)


def load(path: str) -> Manifest:
    with open(path, "r", encoding="utf-8") as fh:
        return from_json(fh.read())


def write_text(text: str, path: str) -> None:
    """Write text to a file, unlinking a regular file already at the path.

    Truncating and rewriting an existing file can wait on a filesystem
    flush, which a new file does not.
    """
    with contextlib.suppress(FileNotFoundError):
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.unlink(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def check_writable(path: str) -> None:
    """Raise the OSError that `write_text` would meet at `path`, without
    writing anything.

    A directory cannot be written.  A regular file is replaced and a new
    one created, both in the parent directory, which must exist and be
    writable.  Anything else at the path is opened as it is, and its
    errors show when it is written.
    """
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if os.path.lexists(path) and not stat.S_ISREG(os.lstat(path).st_mode):
        return
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    if not os.access(parent, os.W_OK | os.X_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)


def save(manifest: Manifest, path: str) -> None:
    write_text(to_json(manifest), path)
