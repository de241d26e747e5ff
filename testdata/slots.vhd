-- Interpreter state under rollback: a loop variable that shadows a process
-- variable of the same name, labelled exit/next across nested loops, a while
-- loop, a wait until with implicit sensitivity and a vector variable's
-- 'length/'range, in processes that exchange values on every clock edge.
library ieee;
use ieee.std_logic_1164.all;

entity slots is end entity;

architecture sim of slots is
  signal clk   : std_logic := '0';
  signal data  : std_logic_vector(7 downto 0) := "00000000";
  signal sum   : integer := 0;
  signal hits  : integer := 0;
  signal width : integer := 0;
  signal flag  : std_logic := '0';
begin
  clkgen : process
  begin
    wait for 5 ns;
    clk <= not clk;
  end process;

  count : process (clk)
  begin
    if rising_edge(clk) then
      data <= data + 7;
    end if;
  end process;

  -- The loop's i is its own object: the process variable i keeps counting
  -- activations across the loop.
  shadow : process (data)
    variable i   : integer := 100;
    variable acc : integer;
  begin
    acc := 0;
    for i in 0 to 7 loop
      if data(i) = '1' then
        acc := acc + i;
      end if;
    end loop;
    i := i + 1;
    sum <= acc + i;
  end process;

  nested : process (data)
    variable n : integer;
  begin
    n := 0;
    outer : for r in 0 to 3 loop
      inner : for c in 0 to 3 loop
        next outer when c > r;
        exit outer when n >= 5;
        if data(r + c) = '1' then
          n := n + 1;
        end if;
        next inner when data(7) = '1';
        n := n + 1;
      end loop inner;
    end loop outer;
    hits <= n;
  end process;

  waiter : process
    variable k : integer;
    variable v : std_logic_vector(5 downto 0) := "101010";
  begin
    wait until clk = '1' and data(0) = '1';
    k := 0;
    while k < v'length loop
      k := k + 2;
    end loop;
    for j in v'range loop
      if j mod 2 = 0 then
        v(j) := not v(j);
      end if;
    end loop;
    width <= k + to_integer(v);
    flag <= not flag;
  end process;

  watch : process (sum, hits, width)
  begin
    assert hits < 7 report "hits " & integer'image(hits) severity note;
    assert sum + width < 200 report "total " & integer'image(sum + width) severity note;
  end process;
end architecture;
