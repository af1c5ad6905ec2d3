"""AXML document model: unordered trees with data and function nodes.

This subpackage implements Section 2.1 of *Positive Active XML* (PODS 2004):
trees, markings, the compact concrete syntax, subsumption, equivalence,
reduction, least upper bounds, forests, and finite graph representations of
regular (possibly infinite) trees.
"""

from .document import CONTEXT, INPUT, RESERVED_NAMES, Document, Forest
from .index import (
    child_bucket,
    child_buckets,
    marking_census,
    probe_bucket,
)
from .node import FunName, Label, Marking, Node, Value, fun, label, val
from .parser import ParseError, parse_forest, parse_tree
from .reduction import (
    canonical_key,
    is_reduced,
    lub,
    reduce_forest,
    reduce_in_place,
    reduced_copy,
)
from .regular import RegularTreeGraph
from .serializer import to_canonical, to_compact, to_xml
from .xmlio import AXML_NS, XmlImportError, from_xml_string, to_xml_string
from .subsumption import (
    forest_equivalent,
    forest_subsumed,
    is_equivalent,
    is_subsumed,
    witness_mapping,
)

__all__ = [
    "AXML_NS",
    "CONTEXT",
    "Document",
    "Forest",
    "FunName",
    "INPUT",
    "Label",
    "Marking",
    "Node",
    "ParseError",
    "RESERVED_NAMES",
    "RegularTreeGraph",
    "Value",
    "canonical_key",
    "child_bucket",
    "child_buckets",
    "forest_equivalent",
    "forest_subsumed",
    "fun",
    "is_equivalent",
    "is_reduced",
    "is_subsumed",
    "label",
    "lub",
    "marking_census",
    "probe_bucket",
    "parse_forest",
    "parse_tree",
    "reduce_forest",
    "reduce_in_place",
    "reduced_copy",
    "to_canonical",
    "to_compact",
    "to_xml",
    "to_xml_string",
    "from_xml_string",
    "XmlImportError",
    "val",
    "witness_mapping",
]
