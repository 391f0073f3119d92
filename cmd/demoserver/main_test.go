package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/workload"
)

func TestIndexListsEveryRegisteredCurve(t *testing.T) {
	names := []string{"", "9"} // no or an unknown curve falls back to the first
	for _, c := range workload.Curves {
		names = append(names, c.Name)
	}
	for _, name := range names {
		req := httptest.NewRequest(http.MethodGet, "/?curve="+name, nil)
		rec := httptest.NewRecorder()
		handleIndex(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("curve %q: status %d", name, rec.Code)
		}
		body := rec.Body.String()
		if !strings.Contains(body, "<form") || !strings.Contains(body, "Run") {
			t.Errorf("curve %q: form missing", name)
		}
		for _, c := range workload.Curves {
			if !strings.Contains(body, `href="/?curve=`+c.Name+`"`) {
				t.Errorf("curve %q: navigation does not list curve %s", name, c.Name)
			}
		}
	}
}

func TestRunCurveIEndpoint(t *testing.T) {
	req := httptest.NewRequest(http.MethodGet, "/run?curve=I&sf=0.001&x=1,2&duration_ms=50", nil)
	rec := httptest.NewRecorder()
	handleRun(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	body := rec.Body.String()
	if strings.Contains(body, `class="err"`) {
		t.Fatalf("run returned an error page:\n%s", body)
	}
	if strings.Count(body, "<svg") != 2 {
		t.Errorf("want 2 charts (throughput + response time), got %d", strings.Count(body, "<svg"))
	}
	if !strings.Contains(body, "<table>") || !strings.Contains(body, "shape: ") {
		t.Error("data table or verdict missing")
	}
}

func TestRunCurveIIIEndpoint(t *testing.T) {
	req := httptest.NewRequest(http.MethodGet, "/run?curve=III&sf=0.001&x=0.5&clients=2&duration_ms=100", nil)
	rec := httptest.NewRecorder()
	handleRun(rec, req)
	body := rec.Body.String()
	if strings.Contains(body, `class="err"`) {
		t.Fatalf("run returned an error page:\n%s", body)
	}
	if !strings.Contains(body, "pull-sp+join") || !strings.Contains(body, "gqp") || !strings.Contains(body, "admits") {
		t.Error("line labels or counter columns missing from output")
	}
}

func TestRunRejectsBadParams(t *testing.T) {
	for _, url := range []string{
		"/run?curve=II&x=nope",
		"/run?curve=II&x=1&duration_ms=soon&sf=0.001",
		"/run?curve=IV&x=1&clients=many&duration_ms=50&sf=0.001",
	} {
		rec := httptest.NewRecorder()
		handleRun(rec, httptest.NewRequest(http.MethodGet, url, nil))
		if !strings.Contains(rec.Body.String(), `class="err"`) {
			t.Errorf("%s must render an error, not crash or run", url)
		}
	}
}

func TestChartRendersSeries(t *testing.T) {
	svg := renderSVG("t", "y", []string{"1", "2", "4"}, []chartSeries{
		{Label: "a", Values: []float64{1, 2, 3}},
		{Label: "b", Values: []float64{3, 2, 1}},
	})
	if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(svg, "</svg>") {
		t.Fatal("not an svg document")
	}
	if strings.Count(svg, "<polyline") != 2 {
		t.Errorf("want 2 polylines, got %d", strings.Count(svg, "<polyline"))
	}
	for _, want := range []string{">a<", ">b<", ">1<", ">4<"} {
		if !strings.Contains(svg, want) {
			t.Errorf("svg missing %q", want)
		}
	}
	// Degenerate inputs must not panic or divide by zero.
	_ = renderSVG("t", "y", []string{"1"}, []chartSeries{{Label: "a", Values: []float64{0}}})
	_ = renderSVG("t", "y", nil, nil)
}
