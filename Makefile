# Convenience entry points; every target works from a bare checkout
# (no editable install needed) by putting src/ on PYTHONPATH.

PY := PYTHONPATH=src python

.PHONY: test bench report

test:            ## tier-1 test suite
	$(PY) -m pytest -x -q

bench:           ## paper-table benchmarks (archive under results/)
	$(PY) -m pytest benchmarks/ --benchmark-only

report:          ## regenerate REPORT.md (live claim audit)
	$(PY) -m repro report
