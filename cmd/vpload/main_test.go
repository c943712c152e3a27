package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/virtualpartitions/vp/internal/cluster"
	"github.com/virtualpartitions/vp/internal/core"
	"github.com/virtualpartitions/vp/internal/gateway"
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/node"
	"github.com/virtualpartitions/vp/internal/onecopy"
	"github.com/virtualpartitions/vp/internal/workload"
)

// TestLoadAgainstGateway drives a short smoke run through a real gateway
// in front of three TCP nodes hosting the generator's default objects,
// and checks the report the way a reader of vpload's JSON would.
func TestLoadAgainstGateway(t *testing.T) {
	if testing.Short() {
		t.Skip("live cluster test")
	}
	cfg := core.Config{Config: node.Config{Delta: 20 * time.Millisecond, LogCap: 256}}
	c, err := cluster.Start(cluster.Config{N: 3, Catalog: model.FullyReplicated(3, workload.Objects(4)...), Core: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	g := gateway.New(gateway.Config{Cluster: c.Addrs()})
	defer g.Close()
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	opt, err := parseArgs([]string{"-addr", srv.URL, "-smoke", "-clients", "4", "-duration", "1s"})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(opt, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	var rep report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("report is not JSON: %v\n%s", err, out.String())
	}
	if rep.Committed == 0 {
		t.Errorf("committed = 0: %s", out.String())
	}
	if rep.Violations != 0 {
		t.Errorf("violations = %d", rep.Violations)
	}
	if rep.Gateway == nil || rep.Gateway.RoundsPerWrite <= 0 {
		t.Errorf("gateway.rounds_per_write not scraped: %+v", rep.Gateway)
	}
	if r := onecopy.CheckGraph(c.History()); !r.OK {
		t.Errorf("history not one-copy serializable: %s", r.Reason)
	}
}

// TestScrapeGatewayTimesOut: a gateway that stops answering after the
// load window fails the scrape within the run client's timeout instead
// of hanging vpload.
func TestScrapeGatewayTimesOut(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { <-release }))
	defer srv.Close()
	defer close(release)

	done := make(chan *gwSide, 1)
	go func() {
		gw, _ := scrapeGateway(&http.Client{Timeout: 100 * time.Millisecond}, srv.URL)
		done <- gw
	}()
	select {
	case gw := <-done:
		if gw != nil {
			t.Errorf("scrape of a silent gateway returned %+v", gw)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("scrape hung past the client's timeout")
	}
}
