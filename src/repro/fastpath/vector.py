"""Placeholder, empty on purpose.

The corpus benchmark (``perfbench/run.py``) imports this module by name when
it times ``repro.import_s``.  Delete the module together with that import.
"""
