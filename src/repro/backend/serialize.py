"""Graph serialisation: save/load deployment graphs as a single ``.npz``.

The exported graph is the deployment artefact — the thing actually shipped
to the target device — so it needs a durable format.  Structure (nodes,
attrs, input/output names) is stored as a JSON document; weight initializers
are stored as native compressed arrays.  Array-valued attributes (only
``constant`` nodes have them) are spilled into the array section and
referenced from the JSON by key.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .ir import Graph, GraphError, Node

__all__ = ["save_graph", "load_graph", "GRAPH_FORMAT_VERSION"]

GRAPH_FORMAT_VERSION = 1
_META_KEY = "__graph_json__"
_ATTR_PREFIX = "__attr__"


def _encode_attrs(attrs: dict, arrays: dict, node_index) -> dict:
    """JSON-safe attrs; ndarray values spill into ``arrays`` by reference."""
    out = {}
    for key, value in attrs.items():
        if isinstance(value, np.ndarray):
            ref = f"{_ATTR_PREFIX}{node_index}.{key}"
            arrays[ref] = value
            out[key] = {"__array_ref__": ref}
        elif isinstance(value, tuple) and value \
                and all(isinstance(v, Node) for v in value):
            # fused_elementwise chains hold the original Nodes; recurse.
            out[key] = {"__nodes__": [
                _encode_node(n, arrays, f"{node_index}.{key}.{j}")
                for j, n in enumerate(value)]}
        elif isinstance(value, tuple):
            out[key] = {"__tuple__": list(value)}
        elif isinstance(value, (np.bool_, np.integer, np.floating)):
            out[key] = value.item()
        else:
            out[key] = value
    return out


def _encode_node(node: Node, arrays: dict, index) -> dict:
    return {"op": node.op, "inputs": list(node.inputs),
            "output": node.output,
            "attrs": _encode_attrs(node.attrs, arrays, index),
            "name": node.name}


def _decode_attrs(attrs: dict, arrays: dict) -> dict:
    out = {}
    for key, value in attrs.items():
        if isinstance(value, dict) and "__array_ref__" in value:
            out[key] = arrays[value["__array_ref__"]]
        elif isinstance(value, dict) and "__nodes__" in value:
            out[key] = tuple(_decode_node(n, arrays)
                             for n in value["__nodes__"])
        elif isinstance(value, dict) and "__tuple__" in value:
            out[key] = tuple(value["__tuple__"])
        else:
            out[key] = value
    return out


def _decode_node(doc: dict, arrays: dict) -> Node:
    return Node(doc["op"], tuple(doc["inputs"]), doc["output"],
                _decode_attrs(doc["attrs"], arrays), doc["name"])


def _graph_doc(graph: Graph, arrays: dict) -> dict:
    return {
        "name": graph.name,
        "input": graph.input,
        "output": graph.output,
        "nodes": [_encode_node(n, arrays, i)
                  for i, n in enumerate(graph.nodes)],
        "initializer_names": sorted(graph.initializers),
    }


def _graph_from_doc(doc: dict, arrays: dict) -> Graph:
    nodes = [_decode_node(n, arrays) for n in doc["nodes"]]
    inits = {name: arrays[name] for name in doc["initializer_names"]}
    graph = Graph(name=doc["name"], input=doc["input"], output=doc["output"],
                  nodes=nodes, initializers=inits)
    graph.validate()
    return graph


def save_graph(graph: Graph, path: str | Path) -> Path:
    """Serialise a validated graph to ``path`` (.npz)."""
    graph.validate()
    arrays: dict[str, np.ndarray] = dict(graph.initializers)
    doc = {"version": GRAPH_FORMAT_VERSION, **_graph_doc(graph, arrays)}
    path = Path(path)
    np.savez_compressed(path, **arrays,
                        **{_META_KEY: np.frombuffer(
                            json.dumps(doc).encode(), dtype=np.uint8)})
    return path if path.suffix == ".npz" else path.with_name(path.name + ".npz")


def load_graph(path: str | Path) -> Graph:
    """Load and validate a graph written by :func:`save_graph`."""
    with np.load(Path(path)) as data:
        if _META_KEY not in data:
            raise GraphError(f"{path}: not a repro graph file")
        doc = json.loads(bytes(data[_META_KEY]).decode())
        arrays = {k: data[k] for k in data.files if k != _META_KEY}
    if doc.get("version") != GRAPH_FORMAT_VERSION:
        raise GraphError(f"{path}: graph format version "
                         f"{doc.get('version')!r}, expected "
                         f"{GRAPH_FORMAT_VERSION}")
    return _graph_from_doc(doc, arrays)
