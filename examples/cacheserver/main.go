// Cacheserver: run the s3cached server and its Go client in one process —
// the distributed-cache deployment (Memcached/Pelikan-style) the paper's
// algorithms ship in.
//
//	go run ./examples/cacheserver
//
// It starts a server on a loopback port, drives a skewed workload from
// several client connections, and prints the server-side statistics.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"net"
	"sync"

	"s3fifo/cache"
	"s3fifo/client"
	"s3fifo/internal/server"
)

func main() {
	c, err := cache.New(cache.Config{MaxBytes: 1 << 20})
	if err != nil {
		log.Fatal(err)
	}
	srv := server.New(c)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()
	fmt.Println("s3cached serving on", l.Addr())

	const (
		clients  = 4
		requests = 5000
		objects  = 5000
	)
	var wg sync.WaitGroup
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cl, err := client.Dial(l.Addr().String())
			if err != nil {
				log.Fatal(err)
			}
			defer cl.Close()
			rng := rand.New(rand.NewSource(int64(id)))
			zipf := rand.NewZipf(rng, 1.1, 1, objects-1)
			for i := 0; i < requests; i++ {
				key := fmt.Sprintf("obj-%d", zipf.Uint64())
				if _, ok, err := cl.Get(key); err != nil {
					log.Fatal(err)
				} else if !ok {
					if _, err := cl.Set(key, make([]byte, 64)); err != nil {
						log.Fatal(err)
					}
				}
			}
		}(id)
	}
	wg.Wait()

	cl, err := client.Dial(l.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	stats, err := cl.Stats()
	if err != nil {
		log.Fatal(err)
	}
	total := stats["hits"] + stats["misses"]
	fmt.Printf("served %d requests from %d clients\n", total, clients)
	fmt.Printf("hits %d, misses %d (hit ratio %.2f), %d entries, %d evictions\n",
		stats["hits"], stats["misses"], float64(stats["hits"])/float64(total),
		stats["entries"], stats["evictions"])
}
