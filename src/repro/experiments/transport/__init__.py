"""Where a sweep's units run: :func:`~.local.run_units`, the one executor."""
