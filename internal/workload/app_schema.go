package workload

import "fmt"

// bankingSchema mirrors examples/banking: an account hierarchy whose
// deposit commutes with itself by escrow-style declaration.
const bankingSchema = `
class account is
    instance variables are
        number  : integer
        owner   : string
        balance : integer
        flagged : boolean
    method deposit(n) is
        balance := balance + n
    end
    method withdraw(n) is
        if n <= balance then
            balance := balance - n
        end
        return balance
    end
    method getbalance is
        return balance
    end
    method rename(who) is
        owner := who
    end
end

class savings inherits account is
    instance variables are
        ratepct : integer
    method accrue is
        send deposit(balance * ratepct / 100) to self
    end
end

class checking inherits account is
    instance variables are
        overdraft : integer
    method withdraw(n) is redefined as
        if n <= balance + overdraft then
            balance := balance - n
        end
        return balance
    end
end
`

// cadSchema mirrors examples/cad: parts with read-heavy inspections and
// occasional revisions.
const cadSchema = `
class part is
    instance variables are
        partno   : integer
        geometry : integer
        revision : integer
        checked  : boolean
    method inspect(work) is
        var i := 0
        var acc := 0
        while i < work do
            i := i + 1
            acc := acc + geometry * i
        end
        return acc
    end
    method revise(delta) is
        geometry := geometry + delta
        revision := revision + 1
        checked := false
    end
    method session(work) is
        var score := send inspect(work) to self
        send revise(score % 7 + 1) to self
    end
    method approve is
        checked := true
    end
end

class assembly inherits part is
    instance variables are
        children : integer
    method session(work) is redefined as
        send part.session(work) to self
        children := children + 1
    end
end
`

// AppSchema returns the source text of a builtin application schema
// ("banking" or "cad") and its commutativity declarations as (class,
// method, method) triples, so a server, a client test or a benchmark can
// open the same database.
func AppSchema(name string) (source string, commuting [][3]string, err error) {
	switch name {
	case "banking":
		return bankingSchema, [][3]string{{"account", "deposit", "deposit"}}, nil
	case "cad":
		return cadSchema, nil, nil
	}
	return "", nil, fmt.Errorf("workload: unknown application schema %q", name)
}
