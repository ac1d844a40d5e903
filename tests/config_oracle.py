"""The JSON Schema the CLI validated configs with before its option tables.

Kept unchanged as an oracle: ``tests/test_cli.py`` checks that
``bumplab.cli.validate_config`` rejects exactly the configs that
``jsonschema.validate(cfg, CONFIG_SCHEMA)`` rejects, except under
``output.formats``, a field no command ever read, which the tables dropped.
"""

CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "grid": {
            "type": "object",
            "properties": {"L": {"type": "number", "exclusiveMinimum": 0},
                           "m": {"type": "integer", "minimum": 4}},
        },
        "weights": {
            "type": "object",
            "properties": {"u": {"type": "string"}, "v": {"type": "string"},
                           "w": {"type": "string"}, "k": {"type": "integer", "minimum": 1}},
        },
        "function": {
            "type": "object",
            "properties": {"f": {"type": "string"}},
        },
        "bump": {
            "type": "object",
            "properties": {
                "p": {"type": "number", "exclusiveMinimum": 1},
                "delta": {"type": "number", "exclusiveMinimum": 0},
                "preset": {"enum": ["max", "czo", "comm", "custom"]},
                "a_left": {"type": ["number", "string", "null"]},
                "a_right": {"type": ["number", "null"]},
            },
        },
        "operator": {
            "type": "object",
            "properties": {"kernel": {"enum": ["hilbert"]},
                           "eta_cells": {"type": "integer", "minimum": 2},
                           "op": {"enum": ["M", "Teta", "Tsharp", "commutator"]}},
        },
        "symbol": {
            "type": "object",
            "properties": {"b": {"type": "string"}, "b_cmo": {"type": "string"},
                           "b_bmo": {"type": "string"}},
        },
        "orlicz": {
            "type": "object",
            "properties": {
                "p": {"type": "number", "exclusiveMinimum": 1},
                "a": {"type": "number", "minimum": 0},
                "cube": {"type": "string"},
            },
        },
        "cubes": {"enum": ["dyadic", "dyadic+shifted"]},
        "probes": {
            "type": "object",
            "properties": {
                "kr": {
                    "type": "object",
                    "properties": {
                        "count": {"type": "integer", "minimum": 1},
                        "seed": {"type": "integer"},
                        "N_list": {"type": "array", "items": {"type": "number"}},
                        "shift_list": {"type": "array", "items": {"type": "integer"}},
                    },
                },
                "spectral": {
                    "type": "object",
                    "properties": {"K_list": {"type": "array",
                                              "items": {"type": "integer", "minimum": 1}}},
                },
            },
        },
        "output": {
            "type": "object",
            "properties": {"dir": {"type": "string"},
                           "formats": {"type": "array", "items": {"enum": ["json", "csv"]}}},
        },
    },
}
