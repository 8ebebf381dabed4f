// Config.Validate is the single gate every engine constructor path
// goes through: each rejection here is a config that used to panic or
// misbehave deep inside New. The tests pin both sides — defaults are
// filled in place, and bad combinations come back as errors (also via
// engine.New, which must refuse to build on them).
package engine

import (
	"strings"
	"testing"
)

func TestValidateFillsDefaults(t *testing.T) {
	var c Config
	if err := c.Validate(); err != nil {
		t.Fatalf("zero config rejected: %v", err)
	}
	if c.Shards != 1 {
		t.Errorf("Shards = %d, want 1", c.Shards)
	}
	if want := DefaultConfig().CachePages; c.CachePages != want {
		t.Errorf("CachePages = %d, want %d", c.CachePages, want)
	}
	if c.TableID != 1 {
		t.Errorf("TableID = %d, want 1", c.TableID)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		want string // substring of the error
	}{
		{"negative shards", func(c *Config) { c.Shards = -2 }, "Shards"},
		{"negative cache", func(c *Config) { c.CachePages = -1 }, "CachePages"},
		{"file device without dir", func(c *Config) { c.Device = DeviceFile; c.Dir = "" }, "Config.Dir"},
		{"unknown device", func(c *Config) { c.Device = "tape" }, "unknown device"},
		{"keyspan below shards", func(c *Config) { c.Shards = 8; c.KeySpan = 5 }, "KeySpan"},
		{"cache too small for shards", func(c *Config) { c.Shards = 8; c.CachePages = 32 }, "8 per shard"},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mut(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatal("Validate accepted the config")
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("error %q does not mention %q", err, tt.want)
			}
			// New must refuse the same config with the same diagnosis.
			if _, newErr := New(cfg); newErr == nil {
				t.Fatal("New accepted a config Validate rejects")
			} else if !strings.Contains(newErr.Error(), tt.want) {
				t.Fatalf("New error %q does not mention %q", newErr, tt.want)
			}
		})
	}
}

func TestValidateAcceptsShardedConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Shards = 4
	cfg.KeySpan = 4096
	cfg.CachePages = 256
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid sharded config rejected: %v", err)
	}
	eng, err := New(cfg)
	if err != nil {
		t.Fatalf("New on valid config: %v", err)
	}
	if got := len(eng.DCs); got != 4 {
		t.Fatalf("engine has %d DCs, want 4", got)
	}
}
