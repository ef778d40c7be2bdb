# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml); `make lint` is the pre-push gate.

GO ?= go

.PHONY: all build test race lint vet clean

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./internal/core/ ./internal/locks/ ./internal/hist/ ./internal/btree/ ./internal/art/ ./internal/server/... ./internal/wal/ ./internal/indextest/...

# lint builds the optiqlvet multichecker and runs it once over the
# module (module-wide facts, unused-suppression reporting). The binary
# is cached in bin/ and rebuilt only when its sources change, via go
# build's own staleness check. The escape gate
# then asks the compiler what the analyzers cannot see across calls:
# which hot-path locals it moved to the heap (scripts/escape_allow.txt)
# and whether the read-path helpers still inline (scripts/inline_keep.txt).
lint: bin/optiqlvet
	./bin/optiqlvet ./...
	scripts/escape_check.sh

bin/optiqlvet: FORCE
	$(GO) build -o bin/optiqlvet ./cmd/optiqlvet

FORCE:

vet:
	$(GO) vet ./...

clean:
	rm -rf bin
