"""The ``repro`` command line, one module per verb.

``repro/__main__.py`` holds the verb -> module table and imports a
module only when its verb is dispatched. Every verb module defines
``build_parser()`` and ``main(argv, out=None) -> int`` (the exit code);
:mod:`repro.cli.run` is the verb-less ``repro --sql/--workload ...``
grammar, whose ``main`` takes the parsed arguments.
"""
