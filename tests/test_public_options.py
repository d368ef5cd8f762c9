"""The optional parameters of the public API, pinned.

Every parameter with a default on a public function or method of a
``cylcc`` module is listed below, found by parsing the sources.  A
method counts whatever its class, since a private base class such as
``evaluation._ComponentMap`` hands its methods to public ones.  Adding or
removing an option fails this test until the table changes with it.
"""

import ast
from pathlib import Path

import cylcc

PUBLIC_OPTIONS = {
    "complexes.ModuliDataset.orbit_ids": ("side", "stage"),
    "complexes.differential_matrix": ("action_max", "side", "stage"),
    "complexes.GradedMap.zero": ("degree",),
    "complexes.graded_map_from_dataset": ("tag",),
    "evaluation.flow_normalize": ("radius",),
    "evaluation.pole_preimages": ("pole_choice", "n_scan", "n_grid"),
    "evaluation.path_intersections": ("path", "n_scan", "n_grid"),
    "evaluation.s0_zero_locus_check": ("n_scan", "n_cells"),
    "evaluation.parse_evmap": ("source_name",),
    "gluing.obstruction_pairing": ("n_quad",),
    "gluing.two_sided_pairing_quadrature": ("n_quad",),
    "orientation.comparison_sign": ("preimage_basis", "e_basis"),
    "orientation.glued_sign": ("direction",),
    "ratmat.nullspace": ("ncols",),
}


def _with_defaults(node: ast.FunctionDef):
    args = node.args
    positional = args.posonlyargs + args.args
    named = positional[len(positional) - len(args.defaults):] if args.defaults else []
    named += [arg for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default]
    return tuple(arg.arg for arg in named)


def _public_options():
    found = {}
    for path in sorted(Path(cylcc.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            owners = [(f"{path.stem}.", [node])]
            if isinstance(node, ast.ClassDef):
                owners = [(f"{path.stem}.{node.name}.", node.body)]
            for prefix, body in owners:
                for fn in body:
                    if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                        options = _with_defaults(fn)
                        if options:
                            found[prefix + fn.name] = options
    return found


def test_public_options_are_pinned():
    assert _public_options() == PUBLIC_OPTIONS
    assert sum(map(len, PUBLIC_OPTIONS.values())) == 23
