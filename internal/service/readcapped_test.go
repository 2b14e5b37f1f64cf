package service

import (
	"strings"
	"testing"
)

// A body at the cap reads whole; one byte over is refused with an error
// naming the cap, never cut to the cap.
func TestReadCapped(t *testing.T) {
	for _, tc := range []struct {
		body    string
		wantErr bool
	}{{"", false}, {"abcd", false}, {"abcdefgh", false}, {"abcdefghi", true}, {strings.Repeat("x", 100), true}} {
		data, err := ReadCapped(strings.NewReader(tc.body), 8)
		switch {
		case tc.wantErr && (err == nil || err.Error() != "response exceeds 8 bytes"):
			t.Errorf("%d-byte body: got %q, %v; want the cap error", len(tc.body), data, err)
		case !tc.wantErr && (err != nil || string(data) != tc.body):
			t.Errorf("%d-byte body: got %q, %v; want it whole", len(tc.body), data, err)
		}
	}
}
