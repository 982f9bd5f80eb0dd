package core

import (
	"os"

	"nestdiff/internal/durable"
)

// WriteFileAtomic is durable.WriteFileAtomic under the name
// cmd/nestbench's checkpoint workload calls.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	return durable.WriteFileAtomic(path, data, perm)
}
