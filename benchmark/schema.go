package main

import (
	"fmt"

	"repro/internal/core"
	"repro/oodb"
)

// bankingSchema is the benchmark's own copy of the banking hierarchy:
// account <- savings, checking with deposit / withdraw / getbalance.
// It is kept as text here so that the benchmark compiles exactly what a
// user would hand to oodb.Compile and depends on no other package's
// fixtures.
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

// initialBalance is preloaded into every account. It is far above the
// number of withdrawals any run can make, so no withdraw is refused and
// every transfer moves exactly one unit.
const initialBalance = int64(1) << 40

// balanceSlot is the slot of account.balance (fields are laid out in
// declaration order, inherited fields first).
const balanceSlot = 2

// accountClasses alternates over the population so both subclasses, and
// the redefined withdraw, are exercised.
var accountClasses = [2]string{"savings", "checking"}

// compileFacade compiles the schema through the public API with
// account.deposit declared self-commuting (the paper's escrow example).
func compileFacade() (*oodb.Schema, error) {
	s, err := oodb.Compile(bankingSchema, oodb.WithCommuting("account", "deposit", "deposit"))
	if err != nil {
		return nil, fmt.Errorf("compile schema: %w", err)
	}
	return s, nil
}

// compileCore is the same compilation for workloads that open the
// engine directly (restart, and the layer probes).
func compileCore() (*core.Compiled, error) {
	ov := core.NewOverrides()
	ov.Declare("account", "deposit", "deposit")
	c, err := core.CompileSource(bankingSchema, core.WithOverrides(ov))
	if err != nil {
		return nil, fmt.Errorf("compile schema: %w", err)
	}
	return c, nil
}

// accountFields returns the positional field values of account i.
func accountFields(i int) (class string, vals [5]any) {
	class = accountClasses[i%2]
	// number, owner, balance, flagged, then ratepct or overdraft.
	return class, [5]any{int64(i), "owner", initialBalance, false, int64(0)}
}
