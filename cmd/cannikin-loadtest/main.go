// Command cannikin-loadtest smoke-drives a running cannikin-serve over
// HTTP: concurrent submissions, an NDJSON epoch stream read to completion,
// a cancellation, and a stats read. It prints PASS and exits 0 when every
// job settles done or canceled and the stats agree.
//
//	cannikin-loadtest -url http://127.0.0.1:8080 -jobs 3
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"cannikin/internal/jobs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cannikin-loadtest:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("cannikin-loadtest", flag.ContinueOnError)
	numJobs := fs.Int("jobs", 3, "number of jobs to submit (at least 3)")
	timeout := fs.Duration("timeout", 5*time.Minute, "overall deadline")
	url := fs.String("url", "", "base URL of a running cannikin-serve (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *url == "" {
		return errors.New("-url is required")
	}
	return httpSmoke(w, strings.TrimRight(*url, "/"), *numJobs, *timeout)
}

// httpSmoke drives a live cannikin-serve: concurrent submissions, one
// NDJSON stream read to completion, one cancellation, and a stats check.
func httpSmoke(w io.Writer, base string, n int, timeout time.Duration) error {
	n = max(n, 3)
	client := &http.Client{Timeout: timeout}
	ids, errs := make([]string, n), make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids[i], errs[i] = submit(client, base, i)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	fmt.Fprintf(w, "submitted %d jobs: %s\n", n, strings.Join(ids, " "))

	// Stream job 0's epochs to completion.
	resp, err := client.Get(base + "/jobs/" + ids[0] + "/stream")
	if err != nil {
		return err
	}
	epochs, final := 0, ""
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev struct {
			Type  string `json:"type"`
			State string `json:"state"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			resp.Body.Close()
			return fmt.Errorf("bad NDJSON %q: %w", sc.Text(), err)
		}
		switch ev.Type {
		case "epoch":
			epochs++
		case "state":
			final = ev.State
		}
	}
	resp.Body.Close()
	if final != string(jobs.StateDone) || epochs == 0 {
		return fmt.Errorf("stream of %s ended with state %q after %d epochs", ids[0], final, epochs)
	}
	fmt.Fprintf(w, "streamed %d epochs of %s to state %s\n", epochs, ids[0], final)

	// Cancel job 1 (it may already be done — both are valid terminal ends).
	req, err := http.NewRequest(http.MethodDelete, base+"/jobs/"+ids[1], nil)
	if err != nil {
		return err
	}
	dresp, err := client.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		return fmt.Errorf("cancel %s: %d", ids[1], dresp.StatusCode)
	}
	fmt.Fprintf(w, "canceled %s\n", ids[1])

	// Wait for everything to settle.
	deadline := time.Now().Add(timeout)
	for _, id := range ids {
		for {
			var st struct {
				State jobs.State `json:"state"`
				Error string     `json:"error"`
			}
			if err := getJSON(client, base+"/jobs/"+id, &st); err != nil {
				return err
			}
			if st.State == jobs.StateFailed {
				return fmt.Errorf("job %s failed: %s", id, st.Error)
			}
			if st.State.Terminal() {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("job %s never settled", id)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	var stats jobs.Stats
	if err := getJSON(client, base+"/stats", &stats); err != nil {
		return err
	}
	if stats.Done+stats.Canceled < n {
		return fmt.Errorf("stats disagree: %+v", stats)
	}
	fmt.Fprintf(w, "stats: %d done, %d canceled, goodput granted %.2f\nPASS\n",
		stats.Done, stats.Canceled, stats.GoodputGranted)
	return nil
}

// submit posts the i-th smoke job, a two-worker MLP spec, and returns the
// ID it was admitted under.
func submit(client *http.Client, base string, i int) (string, error) {
	body := fmt.Sprintf(`{"mlp": true, "mlp_batches": [4, 4], "epochs": 2, "seed": %d}`, 100+i)
	resp, err := client.Post(base+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		msg, _ := io.ReadAll(resp.Body)
		return "", fmt.Errorf("submit %d: %d %s", i, resp.StatusCode, msg)
	}
	var st struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st.ID, err
}

// getJSON decodes the JSON body of a GET.
func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}
