// Saleslog: a personal-data scenario from the paper's conclusion — the
// kind of file people keep in a spreadsheet export and never load into a
// database. A headered CSV of sales with mixed types gets joined against a
// product file, grouped, ordered and limited, with zero setup.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	"nodb"
)

func main() {
	dir, err := os.MkdirTemp("", "nodb-saleslog-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	salesPath := filepath.Join(dir, "sales.csv")
	productsPath := filepath.Join(dir, "products.csv")
	writeSales(salesPath, 50_000)
	writeProducts(productsPath, 200)

	db := nodb.Open(nodb.Options{Policy: nodb.ColumnLoads})
	defer db.Close()
	if err := db.Attach("sales", nodb.TableSpec{Path: salesPath}); err != nil {
		log.Fatal(err)
	}
	if err := db.Attach("products", nodb.TableSpec{Path: productsPath}); err != nil {
		log.Fatal(err)
	}

	sch, _ := db.Schema("sales")
	fmt.Printf("detected schema of sales.csv: %s\n\n", sch)

	// Revenue by product category for big-ticket sales, top 5.
	res, err := db.Query(`
		select count(*), category, sum(amount)
		from sales s join products p on s.product_id = p.id
		where amount > 400
		group by category
		order by category
		limit 5`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("revenue by category (amount > 400):")
	fmt.Println(res)

	// A quick follow-up touching only sales — no join, different columns.
	res2, err := db.Query("select min(amount), max(amount), avg(amount) from sales where qty >= 3")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("amount distribution for qty >= 3:")
	fmt.Println(res2)
}

func writeSales(path string, rows int) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	fmt.Fprintln(f, "product_id,qty,amount")
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < rows; i++ {
		fmt.Fprintf(f, "%d,%d,%.2f\n", rng.Intn(200), 1+rng.Intn(5), 5+rng.Float64()*495)
	}
}

func writeProducts(path string, n int) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	fmt.Fprintln(f, "id,category")
	cats := []string{"books", "music", "games", "tools", "garden"}
	for i := 0; i < n; i++ {
		fmt.Fprintf(f, "%d,%s\n", i, cats[i%len(cats)])
	}
}
