// Command availd-client is a reference client for the availd HTTP API —
// and the load driver the CI smoke test points at a live daemon.
//
// It demonstrates the client half of the service's robustness contract:
//
//   - per-request timeouts (the server returns truncated partial
//     estimates at its deadline; the client budget is set above it),
//   - explicit 429 handling: a shed response is not an error, it is the
//     server declaring capacity — honor Retry-After and try again,
//   - treating any 5xx as a real failure worth reporting loudly.
//
// Usage:
//
//	availd-client [-base http://127.0.0.1:8080] [-burst n]
//	              [-timeout d] [-retries n] [-expect-shed]
//
// The client first runs a few analytic queries (retrying through sheds),
// then fires -burst concurrent Monte Carlo what-ifs to probe the
// admission gate, and prints the status breakdown. Exit is non-zero if
// any request answered 5xx, if nothing succeeded, or if -expect-shed was
// given and the burst was never shed (the gate did not engage).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "availd-client:", err)
		os.Exit(1)
	}
}

// result tallies the burst outcomes.
type result struct {
	ok200, shed429, client4xx, server5xx, netErr atomic.Int64
}

// run drives the demo/smoke sequence against the daemon at -base.
func run(args []string, out io.Writer) error {
	flag := flag.NewFlagSet("availd-client", flag.ContinueOnError)
	var (
		base       = flag.String("base", "http://127.0.0.1:8080", "availd base URL")
		burst      = flag.Int("burst", 16, "concurrent Monte Carlo what-ifs in the load probe")
		timeout    = flag.Duration("timeout", 15*time.Second, "client-side budget per request (set above the server deadline)")
		retries    = flag.Int("retries", 3, "retry attempts after a 429 shed")
		expectShed = flag.Bool("expect-shed", false, "fail unless the burst saw at least one 429 (smoke mode: prove the gate engages)")
	)
	if err := flag.Parse(args); err != nil {
		return err
	}
	if *burst < 1 || *retries < 0 {
		return fmt.Errorf("-burst must be >= 1 and -retries >= 0")
	}
	client := &http.Client{Timeout: *timeout}

	// Analytic queries: cheap, memoized server-side, retried through
	// sheds. The second identical query should come back cached.
	for _, q := range []string{
		"/api/v1/analytic?profile=opencontrail&topology=large&scenario=2",
		"/api/v1/analytic?profile=opencontrail&topology=large&scenario=2",
		"/api/v1/analytic?profile=onos&topology=small&cluster=5",
	} {
		var resp struct {
			CP     float64 `json:"cp_availability"`
			Nines  float64 `json:"cp_nines"`
			Cached bool    `json:"cached"`
		}
		if err := getRetry(client, *base+q, *retries, &resp); err != nil {
			return fmt.Errorf("analytic %s: %w", q, err)
		}
		fmt.Fprintf(out, "analytic %s -> A_CP=%.6f (%.2f nines, cached=%v)\n", q, resp.CP, resp.Nines, resp.Cached)
	}

	// Load probe: a concurrent burst of real simulation work. 200s carry
	// estimates (possibly truncated partials — still valid data); 429s
	// are the gate doing its job; 5xx means the server broke.
	fmt.Fprintf(out, "burst: %d concurrent Monte Carlo what-ifs\n", *burst)
	var res result
	var wg sync.WaitGroup
	for i := 0; i < *burst; i++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			url := *base + "/api/v1/mc?topology=large&horizon=20000&reps=64&timeout=5s&seed=" + strconv.Itoa(seed)
			resp, err := client.Get(url)
			if err != nil {
				res.netErr.Add(1)
				return
			}
			defer resp.Body.Close()
			switch {
			case resp.StatusCode == http.StatusOK:
				var mc struct {
					Truncated    bool `json:"truncated"`
					Replications int  `json:"replications"`
				}
				if json.NewDecoder(resp.Body).Decode(&mc) == nil && mc.Truncated {
					fmt.Fprintf(out, "  seed %d: truncated partial after %d replications (still a valid estimate)\n",
						seed, mc.Replications)
				}
				res.ok200.Add(1)
			case resp.StatusCode == http.StatusTooManyRequests:
				res.shed429.Add(1)
			case resp.StatusCode >= 500:
				res.server5xx.Add(1)
			default:
				res.client4xx.Add(1)
			}
		}(i)
	}
	wg.Wait()

	fmt.Fprintf(out, "burst done: %d ok, %d shed (429), %d client errors, %d server errors, %d network errors\n",
		res.ok200.Load(), res.shed429.Load(), res.client4xx.Load(), res.server5xx.Load(), res.netErr.Load())

	switch {
	case res.server5xx.Load() > 0:
		return fmt.Errorf("%d requests answered 5xx", res.server5xx.Load())
	case res.client4xx.Load() > 0:
		return fmt.Errorf("%d well-formed requests rejected 4xx", res.client4xx.Load())
	case res.netErr.Load() > 0:
		return fmt.Errorf("%d requests failed at the network layer", res.netErr.Load())
	case res.ok200.Load() == 0:
		return fmt.Errorf("no request succeeded")
	case *expectShed && res.shed429.Load() == 0:
		return fmt.Errorf("burst of %d was never shed: admission gate did not engage", *burst)
	}
	return nil
}

// getRetry fetches url into v, retrying 429 sheds with decorrelated
// jitter (floored at the server's Retry-After hint) up to retries times
// within a total sleep budget. Any other non-200 is an error.
func getRetry(client *http.Client, url string, retries int, v any) error {
	bo := newBackoff(100*time.Millisecond, 2*time.Second, 10*time.Second, time.Now().UnixNano())
	for attempt := 0; ; attempt++ {
		resp, err := client.Get(url)
		if err != nil {
			return err
		}
		if resp.StatusCode == http.StatusTooManyRequests && attempt < retries {
			resp.Body.Close()
			wait, ok := bo.next(parseRetryAfter(resp))
			if !ok {
				return fmt.Errorf("shed %d times and the retry budget is spent", attempt+1)
			}
			time.Sleep(wait)
			continue
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			return fmt.Errorf("status %d: %s", resp.StatusCode, body)
		}
		return json.NewDecoder(resp.Body).Decode(v)
	}
}

// parseRetryAfter reads the server's shed hint (0 when absent/invalid).
func parseRetryAfter(resp *http.Response) time.Duration {
	s := resp.Header.Get("Retry-After")
	if s == "" {
		return 0
	}
	secs, err := strconv.Atoi(s)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}
