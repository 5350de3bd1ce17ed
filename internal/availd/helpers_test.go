package availd

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
)

// demoSpec renders a small travel-agency-shaped spec parameterized by the
// web-service availability, giving the tests a family of distinct models.
// Its model name, "selftest", is pinned by the evaluation goldens.
func demoSpec(webAvail float64) []byte {
	return []byte(fmt.Sprintf(`{
	  "name": "selftest",
	  "services": [
	    {"name": "WS", "availability": %.6f},
	    {"name": "DB", "group": {"count": 2, "availability": 0.995}},
	    {"name": "PS", "availability": 0.99}
	  ],
	  "functions": [
	    {
	      "name": "Browse",
	      "steps": [{"name": "serve", "services": ["WS"]}],
	      "transitions": [
	        {"from": "Begin", "to": "serve"},
	        {"from": "serve", "to": "End"}
	      ]
	    },
	    {
	      "name": "Book",
	      "steps": [
	        {"name": "reserve", "services": ["WS", "DB"]},
	        {"name": "pay", "services": ["PS"]}
	      ],
	      "transitions": [
	        {"from": "Begin", "to": "reserve"},
	        {"from": "reserve", "to": "pay", "probability": 0.9},
	        {"from": "reserve", "to": "End", "probability": 0.1},
	        {"from": "pay", "to": "End"}
	      ]
	    }
	  ],
	  "scenarios": [
	    {"name": "browse", "functions": ["Browse"], "probability": 0.7},
	    {"name": "book", "functions": ["Browse", "Book"], "probability": 0.3}
	  ]
	}`, webAvail))
}

// do issues one request and returns status and body.
func do(client *http.Client, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}
