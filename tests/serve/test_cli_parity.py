"""``repro query``, ``repro trace`` and ``/query`` refuse the same input alike.

Both front doors build the query with the same functions, so a request
the CLI refuses with exit 2 the router refuses with 400, and the CLI's
``error: ...`` line carries the router's JSON ``error`` verbatim.
"""

import pytest

from repro.cli import main

#: name -> (CLI arguments, /query parameters, whether ``repro trace``
#: takes the input: it has no ``--text`` and answers a demo query when
#: given no constraint).
CASES = {
    "unknown-attribute": (["Nope=1"], {"c": ["Nope=1"]}, True),
    "non-numeric-constraint": (["Price=abc"], {"c": ["Price=abc"]}, True),
    "non-numeric-text": (
        ["--text", "Price like abc"],
        {"text": ["Price like abc"]},
        False,
    ),
    "text-and-constraints": (
        ["--text", "Make like Ford", "Make=Ford"],
        {"text": ["Make like Ford"], "c": ["Make=Ford"]},
        False,
    ),
    "neither": ([], {}, False),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_and_router_refuse_alike(case, make_router, serve_config, capsys):
    cli_args, params, trace_takes_it = CASES[case]
    response = make_router().route("GET", "/query", params)
    assert response.status == 400
    message = response.json()["error"]
    if case.startswith("non-numeric"):
        assert message == "attribute 'Price' is numeric but got str value 'abc'"
    source = [
        "cardb",
        "--rows", str(serve_config.rows),
        "--sample", str(serve_config.sample),
        "--seed", str(serve_config.seed),
    ]
    for command in ("query", "trace") if trace_takes_it else ("query",):
        assert main([command, *source, *cli_args]) == 2, command
        assert capsys.readouterr().err == f"error: {message}\n", command
