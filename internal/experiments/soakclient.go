package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"repro/internal/server"
)

// soakClient is the thin HTTP client the soak harness drives the server
// with; it goes through the real wire format so the soak exercises the
// same JSON/HTTP path production clients use.
type soakClient struct {
	base string
	hc   *http.Client
}

func newSoakClient(base string) *soakClient {
	return &soakClient{base: base, hc: &http.Client{}}
}

// query posts one /v1/datasets/{name}/query and returns the ranked items.
func (c *soakClient) query(dataset string, k, workers int) ([]server.QueryItem, error) {
	body, _ := json.Marshal(server.QueryRequest{K: k, Workers: workers})
	resp, err := c.hc.Post(c.base+"/v1/datasets/"+dataset+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("query: HTTP %d: %s", resp.StatusCode, b)
	}
	var qr server.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		return nil, err
	}
	return qr.Items, nil
}

// reload posts /v1/datasets/{name}/reload and checks it succeeded.
func (c *soakClient) reload(dataset string) error {
	resp, err := c.hc.Post(c.base+"/v1/datasets/"+dataset+"/reload", "application/json", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("reload: HTTP %d: %s", resp.StatusCode, b)
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}

// epoch reads the dataset's epoch counter from /v1/datasets.
func (c *soakClient) epoch(dataset string) (uint64, error) {
	resp, err := c.hc.Get(c.base + "/v1/datasets")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var dl struct {
		Datasets []server.DatasetInfo `json:"datasets"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dl); err != nil {
		return 0, err
	}
	for _, d := range dl.Datasets {
		if d.Name == dataset {
			return d.Epoch, nil
		}
	}
	return 0, fmt.Errorf("dataset %q not listed", dataset)
}
