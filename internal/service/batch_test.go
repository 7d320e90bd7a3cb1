package service

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"macs/internal/lfk"
)

// lfkBatch builds a batch request from the first n case-study kernels.
func lfkBatch(t testing.TB, n int) BatchRequest {
	t.Helper()
	ks := lfk.All()
	if n > len(ks) {
		t.Fatalf("want %d kernels, have %d", n, len(ks))
	}
	var req BatchRequest
	for _, k := range ks[:n] {
		req.Items = append(req.Items, AnalyzeRequest{
			Source:     k.Source,
			Iterations: int64(k.Elements),
			Prime:      Priming{Ints: k.Ints, Reals: k.Reals, Arrays: k.Arrays},
		})
	}
	return req
}

// runBatch collects a batch's emitted results ordered by item index.
func runBatch(t *testing.T, s *Service, ctx context.Context, req BatchRequest) []BatchItemResult {
	t.Helper()
	byIndex := make(map[int]BatchItemResult, len(req.Items))
	err := s.AnalyzeBatch(ctx, req, func(r BatchItemResult) {
		if _, dup := byIndex[r.Index]; dup {
			t.Errorf("index %d emitted twice", r.Index)
		}
		byIndex[r.Index] = r
	})
	if err != nil {
		t.Fatalf("AnalyzeBatch: %v", err)
	}
	out := make([]BatchItemResult, 0, len(byIndex))
	for i := 0; i < len(req.Items); i++ {
		r, ok := byIndex[i]
		if !ok {
			t.Fatalf("no result emitted for index %d", i)
		}
		out = append(out, r)
	}
	return out
}

// TestAnalyzeBatchDedup: a mixed hot/cold batch reuses the per-kernel
// cache — the pipeline runs only for the cold kernels, and in-batch
// duplicates collapse through singleflight to a single run.
func TestAnalyzeBatchDedup(t *testing.T) {
	s := newTestService(t, Config{Workers: 4, QueueSize: 64})
	ctx := context.Background()
	batch := lfkBatch(t, 4)

	// Pre-warm the first two kernels.
	for i := 0; i < 2; i++ {
		if _, err := s.Analyze(ctx, batch.Items[i]); err != nil {
			t.Fatal(err)
		}
	}
	warm := pipelineRuns(t, s)
	if warm != 2 {
		t.Fatalf("pre-warm runs = %d, want 2", warm)
	}

	// Duplicate one cold kernel inside the batch: six items, two hot,
	// three distinct cold sources.
	batch.Items = append(batch.Items, batch.Items[3], batch.Items[3])
	res := runBatch(t, s, ctx, batch)
	for i, r := range res {
		if r.Error != "" || r.Result == nil {
			t.Fatalf("item %d: %+v", i, r)
		}
	}
	if !res[0].Result.Cached || !res[1].Result.Cached {
		t.Fatal("pre-warmed items missed the cache")
	}
	if got := pipelineRuns(t, s); got != warm+2 {
		t.Fatalf("batch ran the pipeline %d more times, want 2 (cold kernels only)", got-warm)
	}
}

// TestAnalyzeBatchPerItemError: one invalid kernel costs one error line;
// the other items still complete and the batch call itself succeeds.
func TestAnalyzeBatchPerItemError(t *testing.T) {
	s := newTestService(t, Config{Workers: 2, QueueSize: 16})
	batch := lfkBatch(t, 2)
	batch.Items = append([]AnalyzeRequest{{Source: "NOT FORTRAN ("}}, batch.Items...)

	res := runBatch(t, s, context.Background(), batch)
	if res[0].Error == "" || res[0].Result != nil {
		t.Fatalf("invalid item 0: %+v, want error line", res[0])
	}
	for i := 1; i < 3; i++ {
		if res[i].Error != "" || res[i].Result == nil {
			t.Fatalf("valid item %d failed alongside the invalid one: %+v", i, res[i])
		}
	}
}

func TestAnalyzeBatchValidation(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, QueueSize: 4})
	ctx := context.Background()
	if err := s.AnalyzeBatch(ctx, BatchRequest{}, func(BatchItemResult) {}); err == nil {
		t.Fatal("empty batch accepted")
	}
	big := BatchRequest{Items: make([]AnalyzeRequest, maxBatchItems+1)}
	if err := s.AnalyzeBatch(ctx, big, func(BatchItemResult) {}); err == nil {
		t.Fatalf("batch of %d items accepted", len(big.Items))
	}
}

// TestHTTPBatchNDJSON is the batch acceptance test: ten case-study
// kernels, three already hot, posted to /v1/batch — ten NDJSON lines
// stream back, one per item, and the pipeline runs only for the seven
// cold kernels.
func TestHTTPBatchNDJSON(t *testing.T) {
	s := newTestService(t, Config{Workers: 4, QueueSize: 64})
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()
	ctx := context.Background()

	batch := lfkBatch(t, 10)
	for i := 0; i < 3; i++ {
		if _, err := s.Analyze(ctx, batch.Items[i]); err != nil {
			t.Fatal(err)
		}
	}
	warm := pipelineRuns(t, s)

	body, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/batch", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q, want application/x-ndjson", ct)
	}

	seen := make(map[int]bool)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 8<<20)
	lines := 0
	for sc.Scan() {
		lines++
		var item BatchItemResult
		if err := json.Unmarshal(sc.Bytes(), &item); err != nil {
			t.Fatalf("line %d is not JSON: %v", lines, err)
		}
		if item.Error != "" || item.Result == nil {
			t.Fatalf("line %d: %+v", lines, item)
		}
		if seen[item.Index] {
			t.Fatalf("index %d streamed twice", item.Index)
		}
		seen[item.Index] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines != 10 || len(seen) != 10 {
		t.Fatalf("streamed %d lines over %d indices, want 10/10", lines, len(seen))
	}
	if got := pipelineRuns(t, s); got != warm+7 {
		t.Fatalf("batch ran the pipeline %d more times, want 7 (cold kernels only)", got-warm)
	}
}

// TestHTTPBatchTierOverrideAndErrors: an old client's ?tier=fast still
// parses and every item gets the exact answer, malformed bodies fail
// before the stream starts, and an in-stream invalid kernel is one error
// line.
func TestHTTPBatchTierOverrideAndErrors(t *testing.T) {
	s := newTestService(t, Config{Workers: 2, QueueSize: 16})
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	batch := lfkBatch(t, 2)
	batch.Items = append(batch.Items, AnalyzeRequest{Source: "NOT FORTRAN ("})
	body, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/batch?tier=fast", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 8<<20)
	var okLines, errLines int
	for sc.Scan() {
		var item BatchItemResult
		if err := json.Unmarshal(sc.Bytes(), &item); err != nil {
			t.Fatal(err)
		}
		switch {
		case item.Error != "":
			errLines++
			if item.Index != 2 {
				t.Fatalf("error line for index %d, want 2: %+v", item.Index, item)
			}
		case item.Result != nil:
			okLines++
			if item.Result.Tier != "exact" {
				t.Fatalf("?tier=fast item %d served as tier %q, want exact", item.Index, item.Result.Tier)
			}
		default:
			t.Fatalf("empty line: %+v", item)
		}
	}
	if okLines != 2 || errLines != 1 {
		t.Fatalf("got %d ok / %d error lines, want 2/1", okLines, errLines)
	}

	// Malformed JSON fails with 400 before any stream begins.
	resp, err = http.Post(srv.URL+"/v1/batch", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed batch status = %d, want 400", resp.StatusCode)
	}
	// An empty batch is rejected up front, too.
	resp, err = http.Post(srv.URL+"/v1/batch", "application/json", strings.NewReader(`{"items":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("empty batch status = %d, want 422", resp.StatusCode)
	}
}
