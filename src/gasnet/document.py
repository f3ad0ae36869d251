"""The loader of scenario documents: a text in, what ``yaml.safe_load``
gives out.

PyYAML's libyaml parser and composer (its pure-Python ones when PyYAML
was built without libyaml) make the node graph, its scalars tagged from
PyYAML's own implicit-resolver table, and ``_value`` builds dicts, lists
and scalars from it, with PyYAML's safe constructors for the implicit
scalar types and its merge-key rule; a plain decimal float, the common
case, is ``float(text)``, and any float spelling ``float`` rejects goes
to the constructor.  Nodes of other tags go to a ``SafeConstructor``.
Nothing is kept from one parse to the next.  This is the one module of
gasnet that imports PyYAML: ``scenario.parse_scenario`` imports it on its
first call, so code that parses no document never loads PyYAML.
"""

from collections import deque

import yaml
from yaml.constructor import ConstructorError, SafeConstructor

from .errors import ScenarioParseError

# libyaml's parser and composer when PyYAML has them; both give line and column
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_TAG = "tag:yaml.org,2002:"
_STR, _SEQ, _MAP, _FLOAT = _TAG + "str", _TAG + "seq", _TAG + "map", _TAG + "float"
# safe_load's implicit resolvers, (tag, regexp match) in PyYAML's order, by
# the first character of a plain scalar ("" for the empty one); SafeLoader
# has no wildcard (None) and no path resolvers, so this is all it consults
_RESOLVERS = {first: tuple((tag, regexp.match) for tag, regexp in resolvers)
              for first, resolvers in _LOADER.yaml_implicit_resolvers.items()}
# the last characters of a plain decimal float, which float() reads as
# PyYAML's constructor does; inf and nan spellings end in letters
_FLOAT_ENDS = frozenset("0123456789.")
# safe_load's constructors of the implicit scalar types, and the instance
# whose stateless methods (these and flatten_mapping) every parse shares
_SCALARS = {_TAG + name: SafeConstructor.yaml_constructors[_TAG + name]
            for name in ("null", "bool", "int", "float", "timestamp")}
_CONSTRUCTOR = SafeConstructor()
# libyaml's composer recurses in C, once per nesting level, and parses flow
# nesting in time quadratic in its depth; every collection holds one of
# _INDICATORS, so a text with no more of them than this nests no deeper
_MAX_DEPTH = 1_000
_INDICATORS = "[{-:?"


class _TableLoader(_LOADER):
    """``_LOADER`` whose scalars are resolved by ``_RESOLVERS``, the table
    ``resolve`` of PyYAML's ``BaseResolver`` reads, without its per-call
    lookups of wildcard and path resolvers."""

    def resolve(self, kind, value, implicit):
        if kind is yaml.ScalarNode:
            if implicit[0]:
                for tag, match in _RESOLVERS.get(value[:1], ()):
                    if match(value):
                        return tag
            return _STR
        return _SEQ if kind is yaml.SequenceNode else _MAP


def _value(node, built, pending):
    """What ``yaml.safe_load`` builds of ``node``.  A default sequence or
    mapping is returned empty, kept in ``built`` under its node's id (an
    alias is its anchor's object, a recursive one closes its cycle) and
    queued on ``pending`` for ``_load`` to fill; any other tagged node
    goes to a fresh ``SafeConstructor``."""
    kind = type(node)
    if kind is yaml.ScalarNode:
        tag, text = node.tag, node.value
        if tag == _STR:
            return text
        if tag == _FLOAT and text[-1:] in _FLOAT_ENDS and "_" not in text and ":" not in text:
            try:
                return float(text)
            except ValueError:
                pass        # `!!float 0x10`, ...: the constructor's error
        if tag in _SCALARS:
            try:
                return _SCALARS[tag](_CONSTRUCTOR, node)
            except (ValueError, LookupError, AttributeError) as exc:
                # a date that does not exist, `!!int abc`, `!!bool abc`, ...
                raise ConstructorError(None, None, f"cannot construct {tag} from "
                                       f"{text!r}: {exc}", node.start_mark) from exc
    if id(node) in built:
        return built[id(node)]
    if kind is yaml.SequenceNode and node.tag == _SEQ:
        out = built[id(node)] = []
    elif kind is yaml.MappingNode and node.tag == _MAP:
        out = built[id(node)] = {}
    else:
        # !!set, !!omap, !!pairs, !!binary, local tags, collection tags on scalars
        return SafeConstructor().construct_document(node)
    pending.append(node)
    return out


def _load(text):
    """``yaml.safe_load(text)``, built by ``_value`` from libyaml's node
    graph.  Collections are filled first in, first out, as safe_load fills
    them, so of several construction errors the same one is raised."""
    if sum(map(text.count, _INDICATORS)) > _MAX_DEPTH:
        _check_depth(text)
    root = yaml.compose(text, Loader=_TableLoader)
    built, pending = {}, deque()
    doc = None if root is None else _value(root, built, pending)
    while pending:
        node = pending.popleft()
        out = built[id(node)]
        if type(node) is yaml.SequenceNode:
            out += [_value(item, built, pending) for item in node.value]
            continue
        _CONSTRUCTOR.flatten_mapping(node)      # `<<` merges, `=` keys
        for key_node, value_node in node.value:
            key = _value(key_node, built, pending)
            try:
                hash(key)
            except TypeError:
                raise ConstructorError("while constructing a mapping", node.start_mark,
                                       "found unhashable key", key_node.start_mark) from None
            out[key] = _value(value_node, built, pending)
    return doc


def _check_depth(text):
    """Raise ScenarioParseError at the first collection of ``text`` nested
    deeper than ``_MAX_DEPTH``, on parser events, which libyaml makes in a loop."""
    loader, depth = _LOADER(text), 0
    while loader.check_event():
        event = loader.get_event()
        depth += (isinstance(event, yaml.CollectionStartEvent)
                  - isinstance(event, yaml.CollectionEndEvent))
        if depth > _MAX_DEPTH:
            m = event.start_mark
            raise ScenarioParseError(f"collections nest deeper than {_MAX_DEPTH} levels "
                                     f"at line {m.line + 1}, column {m.column + 1}")


def load_document(text):
    """The mapping of a scenario document's text."""
    try:
        doc = _load(text)
    except yaml.YAMLError as exc:
        raise ScenarioParseError(f"not a well-formed YAML document: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioParseError("scenario must be a YAML mapping")
    return doc
