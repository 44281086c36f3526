// Package qos implements the serving quality-of-service layer: tenant
// identity, the signature-keyed result cache, and singleflight collapse of
// identical in-flight queries.
//
// NoDB's adaptive structures make *similar* queries cheap; production
// traffic from many users is full of *identical* queries, and those can be
// absorbed outright. The result cache keys on the normalized bound SQL
// plus the signature of every raw file the statement touches, so the
// invalidation story the engine already has — edit a file and its
// signature changes — extends to results for free: a stale entry is simply
// never looked up again and ages out of the LRU. Cached bytes register
// with the memory governor under their own kind, so results compete with
// (and, being free to recompute relative to a positional map, lose to)
// the adaptive structures under one budget.
//
// Tenancy is identity plus weights: each API key maps to a named tenant
// with a share weight, carried through context from the HTTP layer (or
// the driver DSN) into the engine, where the governor partitions its
// budget and the server partitions its admission slots proportionally.
package qos

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// DefaultTenant is the tenant name used when no registry is configured or
// when an unknown key is admitted under the allow policy.
const DefaultTenant = "default"

// Tenant is one configured tenant: a display name, the API key that
// identifies it, and its relative share weight (budget and admission
// slots are split proportionally to weights).
type Tenant struct {
	// Name is the tenant's display name (appears in stats and Explain).
	Name string
	// Key is the API key presented in X-API-Key (or apikey= in a DSN).
	Key string
	// Weight is the tenant's relative share; values <= 0 mean 1.
	Weight float64
}

func (t Tenant) weight() float64 {
	if t.Weight <= 0 {
		return 1
	}
	return t.Weight
}

// ctxKey is the private context-key namespace.
type ctxKey int

const tenantCtxKey ctxKey = 0

// WithTenant returns a context carrying the resolved tenant name; the
// engine attributes governed structures and the result cache's accounting
// to it.
func WithTenant(ctx context.Context, name string) context.Context {
	if name == "" {
		return ctx
	}
	return context.WithValue(ctx, tenantCtxKey, name)
}

// TenantFrom returns the tenant name carried by ctx ("" when anonymous).
func TenantFrom(ctx context.Context) string {
	name, _ := ctx.Value(tenantCtxKey).(string)
	return name
}

// Registry resolves API keys to tenants. The zero value is unusable; build
// one with NewRegistry.
type Registry struct {
	tenants       []Tenant
	byKey         map[string]Tenant
	rejectUnknown bool
}

// NewRegistry builds a key→tenant resolver. rejectUnknown selects the
// unknown-key policy: true rejects requests whose key is not configured
// (Resolve returns ErrUnknownKey), false admits them as the default
// tenant. Duplicate keys or names, and empty names or keys, are errors. A
// "default" tenant may be configured explicitly to give the fallback
// tenant a weight; otherwise it is implicit with weight 1.
func NewRegistry(tenants []Tenant, rejectUnknown bool) (*Registry, error) {
	r := &Registry{rejectUnknown: rejectUnknown, byKey: make(map[string]Tenant, len(tenants))}
	names := make(map[string]bool, len(tenants))
	for _, t := range tenants {
		if t.Name == "" {
			return nil, fmt.Errorf("qos: tenant with key %q has no name", t.Key)
		}
		if t.Key == "" {
			return nil, fmt.Errorf("qos: tenant %q has no API key", t.Name)
		}
		if names[t.Name] {
			return nil, fmt.Errorf("qos: duplicate tenant name %q", t.Name)
		}
		if _, dup := r.byKey[t.Key]; dup {
			return nil, fmt.Errorf("qos: duplicate API key for tenant %q", t.Name)
		}
		names[t.Name] = true
		t.Weight = t.weight()
		r.byKey[t.Key] = t
		r.tenants = append(r.tenants, t)
	}
	if !rejectUnknown && !names[DefaultTenant] {
		r.tenants = append(r.tenants, Tenant{Name: DefaultTenant, Weight: 1})
	}
	return r, nil
}

// ErrUnknownKey reports an API key no configured tenant owns, under the
// reject policy.
var ErrUnknownKey = fmt.Errorf("qos: unknown API key")

// Resolve maps an API key to its tenant. An empty or unknown key resolves
// to the default tenant under the allow policy and to ErrUnknownKey under
// the reject policy.
func (r *Registry) Resolve(key string) (Tenant, error) {
	if t, ok := r.byKey[key]; ok {
		return t, nil
	}
	if r.rejectUnknown {
		return Tenant{}, ErrUnknownKey
	}
	for _, t := range r.tenants {
		if t.Name == DefaultTenant {
			return t, nil
		}
	}
	return Tenant{Name: DefaultTenant, Weight: 1}, nil
}

// Tenants returns every tenant the registry admits, including the
// implicit default under the allow policy.
func (r *Registry) Tenants() []Tenant {
	return append([]Tenant(nil), r.tenants...)
}

// Weights returns the name→weight map the governor and admission
// controller partition by.
func (r *Registry) Weights() map[string]float64 {
	w := make(map[string]float64, len(r.tenants))
	for _, t := range r.tenants {
		w[t.Name] = t.weight()
	}
	return w
}

// RejectUnknown reports the unknown-key policy.
func (r *Registry) RejectUnknown() bool { return r.rejectUnknown }

// ParseTenantSpec parses the -tenants flag / tenant= DSN syntax: a
// comma-separated list of name:key[:weight] entries, or "@path" naming a
// file with one entry per line (blank lines and #-comments ignored).
func ParseTenantSpec(spec string) ([]Tenant, error) {
	if strings.HasPrefix(spec, "@") {
		data, err := os.ReadFile(spec[1:])
		if err != nil {
			return nil, fmt.Errorf("qos: reading tenants file: %w", err)
		}
		var tenants []Tenant
		for _, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			t, err := parseTenantEntry(line)
			if err != nil {
				return nil, err
			}
			tenants = append(tenants, t)
		}
		return tenants, nil
	}
	var tenants []Tenant
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		t, err := parseTenantEntry(entry)
		if err != nil {
			return nil, err
		}
		tenants = append(tenants, t)
	}
	return tenants, nil
}

func parseTenantEntry(entry string) (Tenant, error) {
	parts := strings.Split(entry, ":")
	if len(parts) < 2 || len(parts) > 3 {
		return Tenant{}, fmt.Errorf("qos: bad tenant entry %q (want name:key[:weight])", entry)
	}
	t := Tenant{Name: strings.TrimSpace(parts[0]), Key: strings.TrimSpace(parts[1]), Weight: 1}
	if t.Name == "" || t.Key == "" {
		return Tenant{}, fmt.Errorf("qos: bad tenant entry %q (empty name or key)", entry)
	}
	if len(parts) == 3 {
		w, err := strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
		if err != nil || w <= 0 {
			return Tenant{}, fmt.Errorf("qos: bad tenant weight in %q (want a positive number)", entry)
		}
		t.Weight = w
	}
	return t, nil
}
