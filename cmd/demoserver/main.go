// Command demoserver is the interactive front-end of the demonstration: a
// stdlib net/http server that lists the registered curves of
// internal/workload, offers one parameter form for all of them, and renders a
// run as inline-SVG charts, the result table and the verdict of the curve's
// orderings — the reproduction of the demo's web GUI (Figures 3-5).
// Experiments run in-process on the generated databases.
//
// Run with: go run ./cmd/demoserver -addr :8080
package main

import (
	"context"
	"flag"
	"fmt"
	"html/template"
	"log"
	"net/http"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/workload"
)

var addr = flag.String("addr", ":8080", "listen address")

// page is the template payload.
type page struct {
	Curves  []*workload.Curve
	Curve   *workload.Curve
	Params  map[string]string
	Charts  []template.HTML
	Header  []string
	Table   [][]string
	Setup   string
	Verdict string
	Err     string
	Elapsed time.Duration
}

var tmpl = template.Must(template.New("page").Parse(`<!DOCTYPE html>
<html><head><title>Reactive & Proactive Sharing — Demo</title>
<style>
body { font-family: sans-serif; margin: 24px; max-width: 1000px; }
nav a { margin-right: 14px; }
form { background: #f4f6f8; padding: 12px; border-radius: 6px; margin: 12px 0; }
label { margin-right: 12px; }
input { width: 90px; }
table { border-collapse: collapse; margin-top: 12px; }
td, th { border: 1px solid #bbb; padding: 4px 10px; font-size: 13px; text-align: right; }
.note { color: #555; font-size: 13px; margin-top: 8px; }
.err { color: #a00; font-weight: bold; }
</style></head><body>
<h1>Reactive and Proactive Sharing Across Concurrent Analytical Queries</h1>
<p>Interactive reproduction of the SIGMOD'14 demonstration: Simultaneous
Pipelining (reactive) vs CJOIN Global Query Plans (proactive) on a QPipe-style
engine. Pick a curve, adjust parameters, run.</p>
<nav>{{range .Curves}}<a href="/?curve={{.Name}}">{{.Name}}: {{.Axis}}</a>{{end}}</nav>
<h2>Curve {{.Curve.Name}}: {{.Curve.Title}}</h2>
<form method="GET" action="/run">
  <input type="hidden" name="curve" value="{{.Curve.Name}}">
  {{range $k, $v := .Params}}
    <label>{{$k}} <input name="{{$k}}" value="{{$v}}"></label>
  {{end}}
  <button type="submit">Run</button>
</form>
{{if .Err}}<p class="err">{{.Err}}</p>{{end}}
{{range .Charts}}<div>{{.}}</div>{{end}}
{{if .Table}}
<table><tr>{{range .Header}}<th>{{.}}</th>{{end}}</tr>
{{range .Table}}<tr>{{range .}}<td>{{.}}</td>{{end}}</tr>{{end}}</table>
{{end}}
{{if .Verdict}}<p class="note">{{.Setup}} — measured in {{.Elapsed}} — {{.Verdict}}</p>{{end}}
</body></html>`))

// curveOf resolves the request's curve, defaulting to the first registered.
func curveOf(r *http.Request) *workload.Curve {
	if c := workload.CurveByName(r.FormValue("curve")); c != nil {
		return c
	}
	return workload.Curves[0]
}

// formParams is the one parameter form: the curve's own x values and client
// count as defaults, submitted values echoed back.
func formParams(r *http.Request, c *workload.Curve) map[string]string {
	xs := make([]string, len(c.X))
	for i, x := range c.X {
		xs[i] = strconv.FormatFloat(x, 'g', -1, 64)
	}
	out := map[string]string{"sf": "0.01", "duration_ms": "1000", "x": strings.Join(xs, ",")}
	if c.Clients > 0 {
		out["clients"] = strconv.Itoa(c.Clients)
	}
	for k := range out {
		if got := r.FormValue(k); got != "" {
			out[k] = got
		}
	}
	return out
}

func main() {
	flag.Parse()
	mux := http.NewServeMux()
	mux.HandleFunc("/", handleIndex)
	mux.HandleFunc("/run", handleRun)

	srv := &http.Server{
		Addr:    *addr,
		Handler: mux,
		// An experiment run can take minutes (handleRun budgets 5), so the
		// write timeout must cover the longest sweep; the header/read/idle
		// timeouts bound slow or stuck clients.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      6 * time.Minute,
		IdleTimeout:       120 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() {
		log.Printf("demo GUI listening on %s", *addr)
		errCh <- srv.ListenAndServe()
	}()
	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
	}
	log.Printf("signal received; draining in-flight runs")
	shCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil {
		log.Printf("shutdown: %v", err)
	}
}

func handleIndex(w http.ResponseWriter, r *http.Request) {
	c := curveOf(r)
	render(w, page{Curves: workload.Curves, Curve: c, Params: formParams(r, c)})
}

func render(w http.ResponseWriter, p page) {
	if err := tmpl.Execute(w, p); err != nil {
		log.Printf("render: %v", err)
	}
}

// parseParams turns the submitted form into run parameters.
func parseParams(form map[string]string) (workload.Params, error) {
	var p workload.Params
	var err error
	if p.X, err = workload.ParseX(form["x"]); err != nil {
		return p, err
	}
	if p.SF, err = strconv.ParseFloat(form["sf"], 64); err != nil {
		return p, fmt.Errorf("bad sf %q", form["sf"])
	}
	ms, err := strconv.Atoi(form["duration_ms"])
	if err != nil {
		return p, fmt.Errorf("bad duration_ms %q", form["duration_ms"])
	}
	p.Duration = time.Duration(ms) * time.Millisecond
	if s, ok := form["clients"]; ok {
		if p.Clients, err = strconv.Atoi(s); err != nil {
			return p, fmt.Errorf("bad clients %q", s)
		}
	}
	return p, nil
}

func handleRun(w http.ResponseWriter, r *http.Request) {
	c := curveOf(r)
	p := page{Curves: workload.Curves, Curve: c, Params: formParams(r, c)}
	defer func() { render(w, p) }()
	params, err := parseParams(p.Params)
	if err != nil {
		p.Err = err.Error()
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), 5*time.Minute)
	defer cancel()
	start := time.Now()
	t, err := workload.Run(ctx, c, params)
	p.Elapsed = time.Since(start).Round(time.Millisecond)
	if err != nil {
		p.Err = err.Error()
		return
	}
	xt := make([]string, len(t.X))
	qps := make([]chartSeries, len(t.Lines))
	lat := make([]chartSeries, len(t.Lines))
	for j, line := range t.Lines {
		qps[j].Label, lat[j].Label = line, line
	}
	for i, x := range t.X {
		xt[i] = strconv.FormatFloat(x, 'g', -1, 64)
		for j, cell := range t.Cells[i] {
			qps[j].Values = append(qps[j].Values, cell.QPS)
			lat[j].Values = append(lat[j].Values, cell.LatencyNs/1e6)
		}
	}
	p.Charts = []template.HTML{
		template.HTML(renderSVG("Throughput vs "+t.Axis, "queries/s", xt, qps)),
		template.HTML(renderSVG("Mean response time vs "+t.Axis, "ms", xt, lat)),
	}
	p.Header, p.Table, p.Setup, p.Verdict = t.Header(), t.Rows(), t.Setup, t.Verdict()
}
