//go:build !amd64

package kernels

// hostBackends: platforms without assembly kernels run the portable
// scalar backend only.
var hostBackends = []*kernelBackend{scalarBackend}
