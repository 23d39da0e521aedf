"""Reference implementations replaced on the runtime path.

Each oracle is the implementation a faster pass replaced, kept verbatim
so equivalence suites can assert the replacement is bit-identical.
Nothing under ``src/`` imports from here.
"""
