package dnsserver

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
)

// CheckEveryOwner exports checkEveryOwner to the package's external tests,
// which build zones with packages that import this one.
var CheckEveryOwner = checkEveryOwner

// ZoneDigest returns the SHA-256 of z's content: its owners in ascending
// key order, each hashed as its folded key then its stored record bytes.
// It also returns the number of owners and of stored record bytes.
func ZoneDigest(z *ZoneSet) (sum string, owners, stored int) {
	z.mu.RLock()
	defer z.mu.RUnlock()
	keys := make([]string, 0, len(z.owners))
	for k := range z.owners {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write(z.owners[k])
		stored += len(z.owners[k])
	}
	return hex.EncodeToString(h.Sum(nil)), len(keys), stored
}
