package main

import (
	"math/rand"
	"strconv"
	"strings"
)

// zipfS is the skew of every generated key and word distribution.
const zipfS = 1.1

// wordOf names the word of a given popularity rank.
func wordOf(rank uint64) string { return "w" + strconv.FormatUint(rank, 36) }

// sentences returns n sentences of per words each, drawn Zipf(zipfS)
// from a vocabulary of vocab words.
func sentences(r *rand.Rand, n, per, vocab int) []string {
	z := rand.NewZipf(r, zipfS, 1, uint64(vocab-1))
	out := make([]string, n)
	var b strings.Builder
	for i := range out {
		b.Reset()
		for j := 0; j < per; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(wordOf(z.Uint64()))
		}
		out[i] = b.String()
	}
	return out
}

// countWords is the reference word count of a set of texts.
func countWords(texts []string) (map[string]int, int) {
	counts := make(map[string]int)
	total := 0
	for _, t := range texts {
		for _, w := range strings.Fields(t) {
			counts[w]++
			total++
		}
	}
	return counts, total
}
