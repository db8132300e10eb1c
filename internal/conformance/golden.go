package conformance

import (
	"encoding/json"
	"fmt"
	"os"
)

// LoadGolden reads a golden file from disk; a missing file is an empty
// matrix (the -update bootstrap case).
func LoadGolden(path string) (map[string]Digest, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return map[string]Digest{}, nil
	}
	if err != nil {
		return nil, err
	}
	out := map[string]Digest{}
	if len(data) == 0 {
		return out, nil
	}
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("conformance: golden file: %w", err)
	}
	return out, nil
}

// SaveGolden writes the digests as stable, human-diffable JSON (keys
// sorted by encoding/json's map ordering).
func SaveGolden(path string, digests map[string]Digest) error {
	data, err := json.MarshalIndent(digests, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// MergeGolden overlays the run's digests onto an existing golden matrix,
// so a short-matrix -update refreshes its subset without dropping the
// full-matrix cells.
func MergeGolden(existing, update map[string]Digest) map[string]Digest {
	out := make(map[string]Digest, len(existing)+len(update))
	for k, v := range existing {
		out[k] = v
	}
	for k, v := range update {
		out[k] = v
	}
	return out
}
