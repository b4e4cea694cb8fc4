# Kube-Knots reproduction — common developer entry points.
#
# The bench target regenerates BENCH_baseline.json: every benchmark runs
# three times (-benchtime 1x -count 3) and cmd/benchjson folds the text output
# into sorted JSON holding the median ns/op, B/op, allocs/op and per-figure
# headline metrics. Commit the refreshed file when a change is expected to
# move a baseline.

GO ?= go

.PHONY: all build test race vet bench determinism loc clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x -count 3 -benchmem . ./internal/api/ | $(GO) run ./cmd/benchjson > BENCH_baseline.json
	@echo wrote BENCH_baseline.json

# Byte-identical experiment output with observability enabled vs disabled,
# across pool widths and across a crash and restart: the determinism
# guarantees. The CI determinism job runs this target, so local and CI
# checks are one list.
determinism:
	$(GO) test ./internal/experiments/ -run 'TestTracingDeterminism|TestTracedExportsStable' -count=1
	$(GO) test ./cmd/kubeknots/ -run 'TestE2EGolden' -count=1
	$(GO) test ./cmd/knotsctl/ -run 'TestTrace' -count=1
	$(GO) run ./cmd/kubeknots -horizon 30s -parallel 1 fig9 > /tmp/kk-plain.txt
	$(GO) run ./cmd/kubeknots -horizon 30s -parallel 1 \
		-spans-out /tmp/kk-spans-p1.jsonl -timeline-out /tmp/kk-timeline-p1.json fig9 > /tmp/kk-traced-p1.txt
	$(GO) run ./cmd/kubeknots -horizon 30s -parallel 8 \
		-spans-out /tmp/kk-spans-p8.jsonl -timeline-out /tmp/kk-timeline-p8.json fig9 > /tmp/kk-traced-p8.txt
	diff /tmp/kk-plain.txt /tmp/kk-traced-p1.txt
	diff /tmp/kk-plain.txt /tmp/kk-traced-p8.txt
	diff /tmp/kk-spans-p1.jsonl /tmp/kk-spans-p8.jsonl
	diff /tmp/kk-timeline-p1.json /tmp/kk-timeline-p8.json
	test -s /tmp/kk-spans-p1.jsonl && test -s /tmp/kk-timeline-p1.json
	$(GO) test ./internal/experiments/ -run TestHarvestDisabledByteIdentical -count=1
	$(GO) test ./cmd/kubeknots/ -run TestHarvestFlagsInertWhenDisabled -count=1
	$(GO) run ./cmd/kubeknots -horizon 30s -parallel 1 \
		-harvest=false -watermark 0.5 -checkpoint-cost 1s fig9 > /tmp/kk-harvest-off.txt
	diff /tmp/kk-plain.txt /tmp/kk-harvest-off.txt
	$(GO) run ./cmd/kubeknots -horizon 30s -parallel 1 fig-harvest > /tmp/kk-fh1.txt
	$(GO) run ./cmd/kubeknots -horizon 30s -parallel 8 fig-harvest > /tmp/kk-fh8.txt
	diff /tmp/kk-fh1.txt /tmp/kk-fh8.txt
	$(GO) test ./internal/experiments/ -run 'TestCrashRecovery|TestCrashSnapshot' -count=1
	$(GO) test ./cmd/kubeknots/ -run TestE2ECrashRecovery -count=1
	rm -rf /tmp/kk-state
	$(GO) run ./cmd/kubeknots -horizon 30s -parallel 1 \
		-state-dir /tmp/kk-state -crash-at 10s fig9 > /dev/null 2>/tmp/kk-crash-err.txt || true
	grep -q 'injected crash' /tmp/kk-crash-err.txt
	$(GO) run ./cmd/kubeknots -horizon 30s -parallel 1 \
		-state-dir /tmp/kk-state fig9 > /tmp/kk-recovered.txt
	diff /tmp/kk-plain.txt /tmp/kk-recovered.txt
	rm -rf /tmp/kk-harvest-state
	$(GO) run ./cmd/kubeknots -horizon 30s -parallel 1 -harvest fig9 > /tmp/kk-harvest-plain.txt
	$(GO) run ./cmd/kubeknots -horizon 30s -parallel 1 -harvest \
		-state-dir /tmp/kk-harvest-state -crash-at 10s fig9 > /dev/null 2>/tmp/kk-harvest-crash-err.txt || true
	grep -q 'injected crash' /tmp/kk-harvest-crash-err.txt
	$(GO) run ./cmd/kubeknots -horizon 30s -parallel 1 -harvest \
		-state-dir /tmp/kk-harvest-state fig9 > /tmp/kk-harvest-recovered.txt
	diff /tmp/kk-harvest-plain.txt /tmp/kk-harvest-recovered.txt
	$(GO) test ./internal/api/ -run TestServerRecovery -count=1
	$(GO) test ./internal/persist/ -count=1
	$(GO) test ./cmd/knotsctl/ -run TestState -count=1
	@echo determinism: tables identical with tracing on/off, tables, spans and timeline identical at -parallel 1 vs 8, harvest flags inert when disabled, crash-restart byte-identical with harvest off and on, durable apiserver recovery and state tools verified

# Go line counts outside perfbench/ (its own module), non-test and test, as
# tracked in ROADMAP.md.
loc:
	@printf 'non-test Go lines: '; git ls-files -z -- '*.go' ':!:*_test.go' ':!:perfbench/' | xargs -0 cat | wc -l
	@printf 'test Go lines:     '; git ls-files -z -- '*_test.go' ':!:perfbench/' | xargs -0 cat | wc -l

clean:
	rm -f /tmp/kk-plain.txt /tmp/kk-traced-p1.txt /tmp/kk-traced-p8.txt \
		/tmp/kk-spans-p1.jsonl /tmp/kk-spans-p8.jsonl /tmp/kk-timeline-p1.json /tmp/kk-timeline-p8.json \
		/tmp/kk-fh1.txt /tmp/kk-fh8.txt /tmp/kk-harvest-off.txt /tmp/kk-crash-err.txt /tmp/kk-recovered.txt \
		/tmp/kk-harvest-plain.txt /tmp/kk-harvest-crash-err.txt /tmp/kk-harvest-recovered.txt
	rm -rf /tmp/kk-state /tmp/kk-harvest-state
