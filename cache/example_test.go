package cache_test

import (
	"bytes"
	"fmt"

	"s3fifo/cache"
)

func Example() {
	c, err := cache.New(cache.Config{MaxBytes: 1 << 20})
	if err != nil {
		panic(err)
	}
	c.Set("answer", []byte("42"))
	if v, ok := c.Get("answer"); ok {
		fmt.Printf("answer = %s\n", v)
	}
	_, ok := c.Get("question")
	fmt.Printf("question cached: %v\n", ok)
	// Output:
	// answer = 42
	// question cached: false
}

func ExampleCache_Stats() {
	c, _ := cache.New(cache.Config{MaxBytes: 1 << 20})
	c.Set("a", []byte("1"))
	c.Get("a")
	c.Get("a")
	c.Get("missing")
	st := c.Stats()
	fmt.Printf("hits=%d misses=%d ratio=%.2f\n", st.Hits, st.Misses, st.HitRatio())
	// Output:
	// hits=2 misses=1 ratio=0.67
}

func ExampleCache_Save() {
	c, _ := cache.New(cache.Config{MaxBytes: 1 << 20})
	c.Set("session", []byte("state"))

	// Persist across a restart.
	var snapshot bytes.Buffer
	if err := c.Save(&snapshot); err != nil {
		panic(err)
	}
	restored, err := cache.Load(&snapshot, cache.Config{MaxBytes: 1 << 20})
	if err != nil {
		panic(err)
	}
	v, _ := restored.Get("session")
	fmt.Printf("restored session = %s\n", v)
	// Output:
	// restored session = state
}
