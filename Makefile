# Convenience entry points; every target works from a bare checkout
# (no editable install needed) by putting src/ on PYTHONPATH.

PY := PYTHONPATH=src python

.PHONY: test bench bench-record bench-ladder bench-server bench-streaming report

test:            ## tier-1 test suite
	$(PY) -m pytest -x -q

bench:           ## paper-table benchmarks (archive under results/)
	$(PY) -m pytest benchmarks/ --benchmark-only

bench-record:    ## serving scenarios -> BENCH_{4,5}.json + results/engine_{pool_vs_fork,overload,observability}.txt
	$(PY) benchmarks/record_bench.py

bench-ladder:    ## small-rung scale-ladder smoke (asserts blocked/dense classification bit-identity; full ladder: --ladder -> BENCH_6.json)
	$(PY) benchmarks/record_bench.py --ladder-smoke

bench-server:    ## HTTP front-end overload curves -> BENCH_8.json + results/engine_http_frontend.txt
	$(PY) benchmarks/record_bench.py --http

bench-streaming: ## streaming chaos smoke (storm + pool crash, bit-identity gate; full rung: --streaming -> BENCH_9.json)
	$(PY) benchmarks/record_bench.py --streaming-smoke

report:          ## regenerate REPORT.md (live claim audit)
	$(PY) -m repro report
